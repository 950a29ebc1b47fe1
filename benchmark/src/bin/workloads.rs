//! `workloads` — the end-to-end half of the two-clock benchmark.
//!
//! Runs one workload (a fixed list of *cases*, each one `Dsm::try_run` of
//! one kernel) in back-to-back *passes* on a single driver thread — the
//! simulator's own `nprocs + reactors + 1` threads are the system under
//! test, the harness adds none — and reports both clocks: `virt_ms`, the
//! SP/2 model's execution time, and `host_ms`, what a user of the simulator
//! waits. With `--trace 1` it reports the per-layer metrics instead: exact
//! protocol counters, per-processor spans, the host side of `Dsm::try_run`,
//! and the `probes` binary's micro-timings.
//!
//! This file compiles against a deliberately small surface of the
//! repository (listed in `README.md`): the four kernels with `GridConfig`
//! and `Variant`; `Dsm`, `DsmConfig`, `DsmRun`, `Process`, `NetFaults`,
//! `RaceDetect`; `CostModel`, `StatsSnapshot`, `ReactorSnapshot`,
//! `VirtualTime`.

use std::collections::HashMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ctrt_dsm::dsm_apps::{gauss, is, jacobi, sor, GridConfig, Variant};
use ctrt_dsm::sp2model::{CostModel, ReactorSnapshot, StatsSnapshot, VirtualTime};
use ctrt_dsm::treadmarks::{Dsm, DsmConfig, DsmRun, NetFaults, Process, RaceDetect};

use dsm_benchmark::calib::Calibrator;
use dsm_benchmark::compare::{compare, parse_records};
use dsm_benchmark::host::{cpu_time_ms, peak_rss_mb, Environment};
use dsm_benchmark::json::Json;
use dsm_benchmark::metrics::{manifest, reading, Source, END_TO_END, PER_LAYER, RUN_SECONDS};
use dsm_benchmark::rng::mix;
use dsm_benchmark::span::{chrome_trace, Recorder, Span};
use dsm_benchmark::stats::{median, min_max, quartiles, tail};
use dsm_benchmark::verdict::{judge, Failure, Observed};

use App::{Gauss, Is, Jacobi, Sor};
use Variant::{Compiled, Push, TreadMarks, Validate};

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

/// The four kernels of `dsm_apps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum App {
    Jacobi,
    Sor,
    Gauss,
    Is,
}

/// One kernel at one size on one cluster: the unit counted as an operation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CaseSpec {
    app: App,
    variant: Variant,
    nprocs: usize,
    grid: GridConfig,
    /// The variant whose checksums the measured run must reproduce bit for
    /// bit (every variant performs the identical arithmetic).
    reference: Variant,
}

impl CaseSpec {
    /// The `<case>` of `apps.<case>.virt_ms`: the kernel, plus the variant
    /// where a workload runs one kernel twice.
    fn label(&self) -> &'static str {
        match (self.app, self.variant) {
            (App::Jacobi, _) => "jacobi",
            (App::Sor, _) => "sor",
            (App::Gauss, _) => "gauss",
            (App::Is, Variant::Compiled) => "is-compiled",
            (App::Is, _) => "is-treadmarks",
        }
    }
}

const fn case(
    app: App,
    variant: Variant,
    nprocs: usize,
    (rows, cols, iters): (usize, usize, usize),
    reference: Variant,
) -> CaseSpec {
    CaseSpec { app, variant, nprocs, grid: GridConfig { rows, cols, iters }, reference }
}

/// A workload: a fixed case list, run in passes.
#[derive(Debug, Clone, Copy)]
struct Spec {
    name: &'static str,
    cases: &'static [CaseSpec],
    /// Unmeasured passes before the first measured one.
    warmups: usize,
    /// Run under `NetFaults::chaos` with the race detector collecting; the
    /// reference is then the same variant fault-free.
    faults: bool,
    /// Virtual time and counters repeat exactly from pass to pass. False
    /// only for the lock-based workload: a contended lock is granted in
    /// host arrival order.
    deterministic: bool,
}

/// The paper's cluster: three problems on 8 processors, sized so that the
/// checked access path (6–8 M accesses a case) dominates host time.
const fn paper_cases(variant: Variant, reference: Variant) -> [CaseSpec; 3] {
    [
        case(Jacobi, variant, 8, (512, 256, 10), reference),
        case(Sor, variant, 8, (512, 256, 10), reference),
        case(Gauss, variant, 8, (256, 256, 32), reference),
    ]
}

const SPECS: [Spec; 6] = [
    Spec {
        name: "tmk8",
        cases: &paper_cases(TreadMarks, Compiled),
        warmups: 2,
        faults: false,
        deterministic: true,
    },
    Spec {
        name: "ctrt8",
        cases: &paper_cases(Compiled, TreadMarks),
        warmups: 5,
        faults: false,
        deterministic: true,
    },
    Spec {
        name: "wide64",
        cases: &[
            case(Jacobi, Validate, 64, (64, 256, 8), Push),
            case(Sor, Validate, 64, (64, 256, 8), Push),
            case(Gauss, Validate, 64, (64, 256, 16), Push),
        ],
        warmups: 2,
        faults: false,
        deterministic: true,
    },
    Spec {
        name: "plan64",
        cases: &[
            case(Jacobi, Compiled, 64, (64, 256, 4), Validate),
            case(Sor, Compiled, 64, (64, 256, 4), Validate),
            case(Gauss, Compiled, 64, (64, 256, 8), Validate),
        ],
        warmups: 2,
        faults: false,
        deterministic: true,
    },
    Spec {
        name: "locks8",
        cases: &[
            case(Is, TreadMarks, 8, (256, 64, 4), Validate),
            case(Is, Compiled, 8, (256, 64, 4), Validate),
        ],
        warmups: 3,
        faults: false,
        deterministic: false,
    },
    Spec {
        name: "chaos8",
        cases: &paper_cases(Validate, Validate),
        warmups: 5,
        faults: true,
        deterministic: true,
    },
];

/// Upper end of a simulated processor's start skew, in virtual ns.
const MAX_SKEW_NS: u64 = 10_000;

/// Fault schedules a faulty workload cycles through: pass `k` runs under
/// schedule `k mod FAULT_SCHEDULES`, so a 10-second run meets ~200 distinct
/// schedules and its median virtual time is a property of the fault *mix*,
/// not of one schedule. (Any change to virtual time anywhere re-rolls every
/// fault decision — they are keyed on send times — so a single schedule's
/// cost moves ±6 % with an unrelated change; the median over many does not.)
const FAULT_SCHEDULES: u64 = 256;

/// A case with the inputs `--seed` generated for it.
#[derive(Debug, Clone, PartialEq)]
struct CaseInput {
    spec: CaseSpec,
    /// Virtual nanoseconds each processor computes before entering the
    /// kernel: SPMD launch skew, 0–10 µs, drawn from the seed.
    skew_ns: Vec<u64>,
}

/// The seeded inputs of a workload — a pure function of `(spec, seed)`.
///
/// Problem sizes are fixed: on these kernels one column more or less moves
/// block boundaries across pages and virtual time by 6–38 %, which no
/// regression bound survives. The seed instead draws what a rerun of the
/// same job really varies — each processor's start skew — and, for the
/// faulty workload, the fault schedules (see [`fault_seed`]).
fn inputs(spec: &Spec, seed: u64) -> Vec<CaseInput> {
    spec.cases
        .iter()
        .enumerate()
        .map(|(c, &case)| CaseInput {
            spec: case,
            skew_ns: (0..case.nprocs)
                .map(|p| mix(&[seed, c as u64, p as u64]) % MAX_SKEW_NS)
                .collect(),
        })
        .collect()
}

/// The `NetFaults::chaos` seed of case `c` under fault schedule `schedule`.
fn fault_seed(seed: u64, schedule: u64, c: usize) -> u64 {
    mix(&[seed, 0xfa17, schedule, c as u64])
}

// ---------------------------------------------------------------------
// Running one case
// ---------------------------------------------------------------------

/// What one `Dsm::try_run` produced.
#[derive(Debug, Clone)]
struct Outcome {
    observed: Observed,
    /// Final virtual clock of each processor.
    elapsed_ns: Vec<u64>,
    /// Counters summed over processors.
    stats: StatsSnapshot,
    reactors: Vec<ReactorSnapshot>,
    /// Wall time of the `Dsm::try_run` call.
    host_ns: u64,
}

/// A simulated processor's clock buckets over its kernel call.
#[derive(Debug, Clone, Copy)]
struct ProcClock {
    end_ns: u64,
    waited_ns: u64,
    overhead_ns: u64,
    computed_ns: u64,
}

/// Records one span per simulated processor around the kernel call.
struct ProcTracer<'a> {
    recorder: &'a Recorder,
    /// The case span these are children of.
    parent: u32,
    workload: &'static str,
    case: &'static str,
    pass: usize,
    clocks: Mutex<Vec<ProcClock>>,
}

/// The counters a per-processor span carries as deltas.
fn span_counters(s: &StatsSnapshot) -> [(&'static str, u64); 10] {
    [
        ("page_faults", s.page_faults),
        ("twins_created", s.twins_created),
        ("diffs_created", s.diffs_created),
        ("diffs_applied", s.diffs_applied),
        ("messages_sent", s.messages_sent),
        ("bytes_sent", s.bytes_sent),
        ("barriers", s.barriers),
        ("lock_acquires", s.lock_acquires),
        ("tlb_hits", s.tlb_hits),
        ("tlb_misses", s.tlb_misses),
    ]
}

impl ProcTracer<'_> {
    fn around<R>(&self, p: &mut Process, kernel: impl FnOnce(&mut Process) -> R) -> R {
        let clock = |p: &Process| {
            let c = p.clock();
            [c.now(), c.waited(), c.overhead(), c.computed()].map(VirtualTime::as_nanos)
        };
        let (host_start, virt_start, stats_start) =
            (self.recorder.now_ns(), clock(p), p.stats().snapshot());
        let result = kernel(p);
        let (host_end, virt_end, stats_end) =
            (self.recorder.now_ns(), clock(p), p.stats().snapshot());
        let [_, waited_ns, overhead_ns, computed_ns] =
            std::array::from_fn(|i| virt_end[i] - virt_start[i]);
        let mut args: Vec<(String, Json)> = vec![
            ("workload".into(), self.workload.into()),
            ("case".into(), self.case.into()),
            ("pass".into(), self.pass.into()),
            ("proc".into(), p.proc_id().into()),
            ("virt_start_ns".into(), virt_start[0].into()),
            ("virt_end_ns".into(), virt_end[0].into()),
            ("waited_ns".into(), waited_ns.into()),
            ("overhead_ns".into(), overhead_ns.into()),
            ("computed_ns".into(), computed_ns.into()),
        ];
        for ((key, before), (_, after)) in
            span_counters(&stats_start).into_iter().zip(span_counters(&stats_end))
        {
            args.push((key.into(), (after - before).into()));
        }
        self.recorder.record(Span {
            id: self.recorder.next_id(),
            parent: Some(self.parent),
            name: format!("kernel {}", self.case),
            layer: "apps",
            lane: 1 + p.proc_id() as u32,
            start_ns: host_start,
            end_ns: host_end,
            args,
        });
        self.clocks.lock().expect("no tracer user panics while holding the lock").push(ProcClock {
            end_ns: virt_end[0],
            waited_ns,
            overhead_ns,
            computed_ns,
        });
        result
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One `Dsm::try_run`: every processor computes its start skew, then runs
/// `kernel` (inside a span when traced). Panics and `DsmError`s come back
/// as failures, not unwinds.
fn execute<R: Send>(
    config: DsmConfig,
    skew_ns: &[u64],
    tracer: Option<&ProcTracer>,
    kernel: impl Fn(&mut Process) -> R + Sync,
    bits: impl Fn(&R) -> u64,
) -> Result<Outcome, Failure> {
    let started = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        Dsm::try_run(config, |p| {
            p.compute(VirtualTime::from_nanos(skew_ns[p.proc_id()]));
            match tracer {
                Some(tracer) => tracer.around(p, &kernel),
                None => kernel(p),
            }
        })
    }));
    let host_ns = started.elapsed().as_nanos() as u64;
    let run: DsmRun<R> = run
        .map_err(|payload| Failure::Panicked(panic_message(payload)))?
        .map_err(|err| Failure::SystemError(err.to_string()))?;
    let stats = run.stats.total();
    Ok(Outcome {
        observed: Observed {
            checksum_bits: run.results.iter().map(bits).collect(),
            virt_ns: run.execution_time().as_nanos(),
            messages: stats.messages_sent,
            races: run.races.len(),
        },
        elapsed_ns: run.elapsed.iter().map(|t| t.as_nanos()).collect(),
        stats,
        reactors: run.reactors,
        host_ns,
    })
}

/// Runs `input` in `variant`, under `NetFaults::chaos(seed)` with the race
/// detector collecting when `faults` is given.
fn run_case(
    input: &CaseInput,
    variant: Variant,
    faults: Option<u64>,
    tracer: Option<&ProcTracer>,
) -> Result<Outcome, Failure> {
    let CaseSpec { app, nprocs, grid, .. } = input.spec;
    let mut config = DsmConfig::new(nprocs).with_cost_model(CostModel::sp2());
    if let Some(seed) = faults {
        config = config
            .with_net_faults(Some(NetFaults::chaos(seed)))
            .with_race_detect(RaceDetect::Collect);
    }
    let skew = &input.skew_ns;
    match app {
        Jacobi => execute(config, skew, tracer, |p| jacobi(p, &grid, variant), |r| r.to_bits()),
        Sor => execute(config, skew, tracer, |p| sor(p, &grid, variant), |r| r.to_bits()),
        Gauss => execute(config, skew, tracer, |p| gauss(p, &grid, variant), |&r| r),
        Is => execute(config, skew, tracer, |p| is(p, &grid, variant), |&r| r),
    }
}

// ---------------------------------------------------------------------
// Passes, references, the failure ledger
// ---------------------------------------------------------------------

/// One execution of every case of the workload.
#[derive(Debug)]
struct Pass {
    /// Wall time, first `Dsm::try_run` call to last return.
    host_ns: u64,
    /// The machine's slowdown factor while the pass ran (see
    /// `dsm_benchmark::calib`): the mean of the spins before and after it.
    /// 1.0 until the measuring loop fills it in.
    slowdown: f64,
    outcomes: Vec<Result<Outcome, Failure>>,
    /// Whether the span recorder was on.
    traced: bool,
    /// Per case, the clock buckets of its processors (traced passes only).
    clocks: Vec<Vec<ProcClock>>,
}

impl Pass {
    /// Σ over cases of `DsmRun::execution_time()`; a failed case adds 0.
    fn virt_ns(&self) -> u64 {
        self.outcomes.iter().flatten().map(|o| o.observed.virt_ns).sum()
    }

    /// `wall_ns` of this pass (or of a part of it) as speed-normalised
    /// milliseconds.
    fn normalised_ms(&self, wall_ns: u64) -> f64 {
        ms(wall_ns) / self.slowdown
    }

    /// The pass's speed-normalised host time in milliseconds.
    fn host_ms(&self) -> f64 {
        self.normalised_ms(self.host_ns)
    }
}

/// The span context of a traced pass.
struct PassTrace<'a> {
    recorder: &'a Recorder,
    workload: &'static str,
    pass: usize,
}

fn run_pass(
    inputs: &[CaseInput],
    seed: u64,
    schedule: Option<u64>,
    trace: Option<&PassTrace>,
) -> Pass {
    let pass_id = trace.map(|t| (t.recorder.next_id(), t.recorder.now_ns()));
    let mut clocks = Vec::new();
    let started = Instant::now();
    let outcomes = inputs
        .iter()
        .enumerate()
        .map(|(c, input)| {
            let faults = schedule.map(|s| fault_seed(seed, s, c));
            let Some(t) = trace else { return run_case(input, input.spec.variant, faults, None) };
            let tracer = ProcTracer {
                recorder: t.recorder,
                parent: t.recorder.next_id(),
                workload: t.workload,
                case: input.spec.label(),
                pass: t.pass,
                clocks: Mutex::new(Vec::new()),
            };
            let start_ns = t.recorder.now_ns();
            let outcome = run_case(input, input.spec.variant, faults, Some(&tracer));
            let mut args: Vec<(String, Json)> = vec![
                ("workload".into(), t.workload.into()),
                ("case".into(), tracer.case.into()),
                ("pass".into(), t.pass.into()),
            ];
            if let Ok(o) = &outcome {
                args.push(("virt_ns".into(), o.observed.virt_ns.into()));
                args.push(("messages".into(), o.observed.messages.into()));
            }
            t.recorder.record(Span {
                id: tracer.parent,
                parent: pass_id.map(|(id, _)| id),
                name: format!("Dsm::try_run {}", tracer.case),
                layer: "treadmarks",
                lane: 0,
                start_ns,
                end_ns: t.recorder.now_ns(),
                args,
            });
            clocks.push(tracer.clocks.into_inner().expect("the run has ended"));
            outcome
        })
        .collect();
    let host_ns = started.elapsed().as_nanos() as u64;
    if let (Some(t), Some((id, start_ns))) = (trace, pass_id) {
        t.recorder.record(Span {
            id,
            parent: None,
            name: format!("pass {}", t.pass),
            layer: "bench",
            lane: 0,
            start_ns,
            end_ns: t.recorder.now_ns(),
            args: vec![("workload".into(), t.workload.into()), ("pass".into(), t.pass.into())],
        });
    }
    Pass { host_ns, slowdown: 1.0, outcomes, traced: trace.is_some(), clocks }
}

/// Reference checksums and virtual time of each case.
#[derive(Debug, Clone, PartialEq)]
struct References {
    checksum_bits: Vec<Vec<u64>>,
    virt_ns: Vec<u64>,
}

/// Runs each case's reference once: a different variant of the same
/// problem, or for the faulty workload the same variant fault-free.
fn take_references(inputs: &[CaseInput]) -> Result<References, String> {
    let mut refs = References { checksum_bits: Vec::new(), virt_ns: Vec::new() };
    for input in inputs {
        let outcome = run_case(input, input.spec.reference, None, None)
            .map_err(|f| format!("reference run of {} failed: {f}", input.spec.label()))?;
        refs.checksum_bits.push(outcome.observed.checksum_bits);
        refs.virt_ns.push(outcome.observed.virt_ns);
    }
    Ok(refs)
}

/// Counts cases attempted and failed, and remembers the first execution of
/// every `(schedule, case)` so later ones can be held to it.
#[derive(Debug, Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    /// The first few failures, for the report.
    failures: Vec<String>,
    first_execution: HashMap<(u64, usize), (u64, u64)>,
}

impl Ledger {
    fn judge_pass(&mut self, spec: &Spec, refs: &References, schedule: Option<u64>, pass: &Pass) {
        for (c, outcome) in pass.outcomes.iter().enumerate() {
            self.attempted += 1;
            let verdict = outcome.as_ref().map_err(Clone::clone).and_then(|o| {
                let key = (schedule.unwrap_or(0), c);
                let first = self.first_execution.get(&key).copied();
                if first.is_none() {
                    self.first_execution.insert(key, (o.observed.virt_ns, o.observed.messages));
                }
                judge(&o.observed, &refs.checksum_bits[c], first.filter(|_| spec.deterministic))
            });
            if let Err(failure) = verdict {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!(
                        "{} {}: {failure}",
                        spec.name,
                        spec.cases[c].label()
                    ));
                }
            }
        }
    }
}

/// The fault schedule of the `k`-th pass since the references were taken.
fn schedule_of(spec: &Spec, k: usize) -> Option<u64> {
    spec.faults.then_some(k as u64 % FAULT_SCHEDULES)
}

/// One complete set-up: inputs from the seed, reference runs, warm-up
/// passes. Returns what the measured passes need.
fn set_up(
    spec: &Spec,
    seed: u64,
    warmups: usize,
    ledger: &mut Ledger,
) -> Result<(Vec<CaseInput>, References), String> {
    let inputs = inputs(spec, seed);
    let refs = take_references(&inputs)?;
    for k in 0..warmups {
        let schedule = schedule_of(spec, k);
        let pass = run_pass(&inputs, seed, schedule, None);
        ledger.judge_pass(spec, &refs, schedule, &pass);
    }
    Ok((inputs, refs))
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Σ over the cases of a pass of one counter.
fn total(pass: &Pass, field: impl Fn(&StatsSnapshot) -> u64) -> u64 {
    pass.outcomes.iter().flatten().map(|o| field(&o.stats)).sum()
}

/// The exact section: virtual nanoseconds and every protocol counter of one
/// pass, Σ over its cases. These repeat bit for bit on a deterministic
/// workload, which is what `--compare` holds two commits to.
fn exact_counters(pass: &Pass) -> Vec<(&'static str, f64)> {
    let t = |field: fn(&StatsSnapshot) -> u64| total(pass, field) as f64;
    let (hits, misses) = (t(|s| s.tlb_hits), t(|s| s.tlb_misses));
    vec![
        ("treadmarks.page_faults", t(|s| s.page_faults)),
        ("treadmarks.protection_ops", t(|s| s.protection_ops)),
        ("treadmarks.twins_created", t(|s| s.twins_created)),
        ("treadmarks.diffs_created", t(|s| s.diffs_created)),
        ("treadmarks.diffs_applied", t(|s| s.diffs_applied)),
        ("treadmarks.full_page_fetches", t(|s| s.full_page_fetches)),
        ("treadmarks.write_notices", t(|s| s.write_notices)),
        ("treadmarks.barriers", t(|s| s.barriers)),
        ("treadmarks.lock_acquires", t(|s| s.lock_acquires)),
        ("treadmarks.tlb_hits", hits),
        ("treadmarks.tlb_misses", misses),
        (
            "treadmarks.tlb_hit_ratio",
            if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        ),
        ("treadmarks.table_lock_acquires", t(|s| s.table_lock_acquires)),
        ("treadmarks.sync_wait_virt_ms", t(|s| s.sync_wait_ns) / 1e6),
        ("treadmarks.gc_trimmed_diffs", t(|s| s.gc_trimmed_diffs)),
        ("msgnet.messages", t(|s| s.messages_sent)),
        ("msgnet.kbytes", t(|s| s.bytes_sent) / 1024.0),
        ("msgnet.broadcasts", t(|s| s.broadcasts)),
        ("msgnet.retransmits", t(|s| s.net_retransmits)),
        ("msgnet.dups", t(|s| s.net_dups)),
        ("msgnet.reorders", t(|s| s.net_reorders)),
        ("msgnet.delays", t(|s| s.net_delays)),
        ("msgnet.added_delay_virt_ms", t(|s| s.net_added_delay_ns) / 1e6),
        ("ctrt.validates", t(|s| s.validates)),
        ("ctrt.validate_w_syncs", t(|s| s.validate_w_syncs)),
        ("ctrt.pushes", t(|s| s.pushes)),
        ("ctrt.neighbor_syncs", t(|s| s.neighbor_syncs)),
        ("ctrt.split_phase_issues", t(|s| s.split_phase_issues)),
        ("ctrt.merged_sync_msgs", t(|s| s.merged_sync_msgs)),
        ("rsdcomp.barriers_eliminated", t(|s| s.barriers_eliminated)),
        ("racecheck.races_detected", t(|s| s.races_detected)),
        ("racecheck.window_trimmed", t(|s| s.races_window_trimmed)),
    ]
}

fn exact_json(pass: &Pass) -> Json {
    exact_counters(pass)
        .into_iter()
        .fold(Json::obj().set("virt_ns", pass.virt_ns()), |doc, (name, value)| doc.set(name, value))
}

/// The metrics derived from clocks and spans. `passes` are all passes of
/// the run (for medians and spread); `traced` is the first traced pass (for
/// the critical processor's clock buckets).
fn span_metrics(
    spec: &Spec,
    refs: &References,
    passes: &[&Pass],
    traced: &Pass,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    // The last-finishing processor of each case sets its execution time;
    // its buckets say what that time was spent on.
    let mut crit = [0u64; 3];
    for clocks in &traced.clocks {
        if let Some(last) = clocks.iter().max_by_key(|c| c.end_ns) {
            crit[0] += last.waited_ns;
            crit[1] += last.overhead_ns;
            crit[2] += last.computed_ns;
        }
    }
    out.push(("treadmarks.crit_wait_virt_ms", ms(crit[0])));
    out.push(("treadmarks.crit_overhead_virt_ms", ms(crit[1])));
    out.push(("treadmarks.crit_compute_virt_ms", ms(crit[2])));
    let (mut max_sum, mut mean_sum) = (0.0, 0.0);
    for o in traced.outcomes.iter().flatten() {
        max_sum += o.elapsed_ns.iter().copied().max().unwrap_or(0) as f64;
        mean_sum += o.elapsed_ns.iter().sum::<u64>() as f64 / o.elapsed_ns.len().max(1) as f64;
    }
    out.push(("treadmarks.imbalance_x", if mean_sum > 0.0 { max_sum / mean_sum } else { 0.0 }));
    let virt: Vec<f64> = passes.iter().map(|p| ms(p.virt_ns())).collect();
    let (lo, hi) = min_max(&virt);
    out.push(("treadmarks.virt_spread_pct", (hi - lo) / median(&virt) * 100.0));
    // The split of the two end-to-end sums by case; 0 for a case the
    // workload does not run.
    for m in
        PER_LAYER.iter().filter(|m| m.name.starts_with("apps.") && m.name != "apps.ref_ratio_x")
    {
        let (label, clock) = m.name["apps.".len()..].rsplit_once('.').expect("apps.<case>.<clock>");
        let value = spec.cases.iter().position(|c| c.label() == label).map_or(0.0, |c| {
            let per_pass: Vec<f64> = passes
                .iter()
                .filter_map(|p| Some((p, p.outcomes[c].as_ref().ok()?)))
                .map(|(p, o)| match clock {
                    "virt_ms" => ms(o.observed.virt_ns),
                    _ => p.normalised_ms(o.host_ns),
                })
                .collect();
            median(&per_pass)
        });
        out.push((m.name, value));
    }
    out.push(("apps.ref_ratio_x", refs.virt_ns.iter().sum::<u64>() as f64 / (median(&virt) * 1e6)));
    out
}

/// The host side of `Dsm::try_run`, from the untraced passes; times are
/// speed-normalised.
fn host_metrics(
    untraced: &[&Pass],
    traced: &[&Pass],
    cpu_ms_per_pass: f64,
) -> Vec<(&'static str, f64)> {
    let host_ms: Vec<f64> = untraced.iter().map(|p| p.host_ms()).collect();
    let host = median(&host_ms);
    let first = untraced[0];
    let accesses = total(first, |s| s.tlb_hits + s.tlb_misses) as f64;
    let messages = total(first, |s| s.messages_sent) as f64;
    let reactor = |field: fn(&ReactorSnapshot) -> u64, fold: fn(u64, u64) -> u64| {
        let per_pass: Vec<f64> = untraced
            .iter()
            .map(|p| {
                p.outcomes.iter().flatten().flat_map(|o| &o.reactors).map(field).fold(0, fold)
                    as f64
            })
            .collect();
        median(&per_pass)
    };
    let traced_ms: Vec<f64> = traced.iter().map(|p| p.host_ms()).collect();
    vec![
        ("treadmarks.run_cpu_ms", cpu_ms_per_pass),
        // The tail by the ten-samples-beyond rule; the maximum when the run
        // is too short to have one.
        ("treadmarks.run_tail_ms", tail(&host_ms).map_or(min_max(&host_ms).1, |t| t.value)),
        ("treadmarks.peak_rss_mb", peak_rss_mb()),
        ("treadmarks.host_ns_per_access", if accesses > 0.0 { host * 1e6 / accesses } else { 0.0 }),
        ("treadmarks.host_us_per_msg", if messages > 0.0 { host * 1e3 / messages } else { 0.0 }),
        ("treadmarks.reactor_polls", reactor(|r| r.polls, |a, b| a + b)),
        ("treadmarks.reactor_wakeups", reactor(|r| r.wakeups, |a, b| a + b)),
        ("treadmarks.reactor_served", reactor(|r| r.served, |a, b| a + b)),
        ("treadmarks.reactor_max_depth", reactor(|r| r.max_queue_depth, u64::max)),
        ("bench.trace_overhead_pct", (median(&traced_ms) - host) / host * 100.0),
    ]
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

const USAGE: &str = "usage:
  workloads --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out-dir DIR]
  workloads --compare <A/results.jsonl> <B/results.jsonl>
  workloads --manifest
workloads: tmk8 ctrt8 wide64 plan64 locks8 chaos8";

#[derive(Debug)]
struct Options {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// 1 warm-up + 3 passes, probes at 100 calls: a smoke run, not
    /// comparable with full runs.
    quick: bool,
    out_dir: PathBuf,
}

/// Where results and traces go by default: next to the build, which both
/// `.gitignore` files already cover (`<target>/bench-out`).
fn default_out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("bench-out")))
        .unwrap_or_else(|| PathBuf::from("bench-out"))
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (0, RUN_SECONDS as f64, false, false);
    let mut out_dir = default_out_dir();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => quick = true,
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = *SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    Ok(Options { spec, seed, seconds, trace, quick, out_dir })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        Some("--compare") if args.len() == 3 => run_compare(&args[1], &args[2]),
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_options(&args).and_then(|options| run_workload(&options)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("workloads: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_records(&text).map_err(|e| format!("{path}: {e}"))
    };
    let report = compare(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(!report.failed())
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;

/// Share of `--seconds` a traced run spends on passes; the probes get the
/// rest.
const TRACED_PASS_SHARE: f64 = 0.5;

/// Runs the `probes` binary that sits next to this one and returns its
/// `metrics` object.
fn run_probes(options: &Options) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let probes = exe.with_file_name("probes");
    let mut command = Command::new(&probes);
    command.arg("--trace-file").arg(options.out_dir.join("probes.trace.json"));
    if options.quick {
        command.arg("--quick");
    }
    // `output` waits for the child and collects its pipes: nothing is left
    // running when this returns.
    let out = command.output().map_err(|e| format!("{}: {e}", probes.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            probes.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("probes printed nothing")?;
    let doc = Json::parse(last).map_err(|e| format!("probes output: {e}"))?;
    doc.get("metrics").cloned().ok_or_else(|| "probes output has no metrics".to_string())
}

/// What a run measured, before it is turned into metrics.
struct Measured {
    warmups: usize,
    ledger: Ledger,
    refs: References,
    /// Per set-up round: wall seconds, and the same speed-normalised.
    setup_wall_s: Vec<f64>,
    setup_s: Vec<f64>,
    /// Measured passes in execution order; a traced run alternates untraced
    /// and traced ones.
    passes: Vec<Pass>,
    /// Speed-normalised CPU time of the measuring loop, per pass.
    cpu_ms_per_pass: f64,
    recorder: Recorder,
}

/// Set-up (several times over, so that its time can be a median), then
/// passes until `--seconds` have gone by.
fn measure(options: &Options, process_start: Instant) -> Result<Measured, String> {
    let Options { spec, seed, .. } = *options;
    let warmups = if options.quick { 1 } else { spec.warmups };
    let rounds = if options.trace || options.quick { 1 } else { SETUP_ROUNDS };
    let mut ledger = Ledger::default();
    let mut calibrator = Calibrator::new();
    let (mut setup_wall_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut ready = None;
    for round in 0..rounds {
        // Only the first round includes process start-up; the harness has
        // done nothing else by then.
        let started = if round == 0 { process_start } else { Instant::now() };
        ready = Some(set_up(&spec, seed, warmups, &mut ledger)?);
        let wall = started.elapsed().as_secs_f64();
        setup_wall_s.push(wall);
        setup_s.push(wall / calibrator.lap());
    }
    let (inputs, refs) = ready.expect("at least one set-up round");

    // A traced run alternates untraced and traced passes (same fault
    // schedules for both) so that their difference is the tracing overhead
    // and not drift.
    let recorder = Recorder::new();
    let budget = options.seconds * if options.trace { TRACED_PASS_SHARE } else { 1.0 };
    let deadline = Instant::now() + Duration::from_secs_f64(budget);
    let min_passes = if options.trace { 6 } else { 3 };
    let cpu_start = cpu_time_ms();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || !(options.quick || Instant::now() >= deadline) {
        let n = passes.len();
        let (traced, k) = if options.trace { (n % 2 == 1, n / 2) } else { (false, n) };
        let schedule = schedule_of(&spec, k);
        let trace = PassTrace { recorder: &recorder, workload: spec.name, pass: k };
        let mut pass = run_pass(&inputs, seed, schedule, traced.then_some(&trace));
        pass.slowdown = calibrator.lap();
        ledger.judge_pass(&spec, &refs, schedule, &pass);
        passes.push(pass);
    }
    let mean_slowdown = passes.iter().map(|p| p.slowdown).sum::<f64>() / passes.len() as f64;
    let cpu_ms_per_pass = (cpu_time_ms() - cpu_start) / passes.len() as f64 / mean_slowdown;
    Ok(Measured { warmups, ledger, refs, setup_wall_s, setup_s, passes, cpu_ms_per_pass, recorder })
}

/// The 98 per-layer metrics of a traced run, in declared order: counters,
/// spans and host side from `m`, the rest from the `probes` binary.
fn per_layer_metrics(options: &Options, m: &Measured) -> Result<Json, String> {
    let all: Vec<&Pass> = m.passes.iter().collect();
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = m.passes.iter().partition(|p| p.traced);
    let mut values: HashMap<&str, f64> = HashMap::new();
    values.extend(exact_counters(untraced[0]));
    values.extend(span_metrics(&options.spec, &m.refs, &all, traced[0]));
    values.extend(host_metrics(&untraced, &traced, m.cpu_ms_per_pass));
    let probes = run_probes(options)?;
    PER_LAYER.iter().try_fold(Json::obj(), |doc, metric| {
        let value = match metric.source {
            Source::Probe => probes
                .get(metric.name)
                .and_then(|r| r.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("the probes did not report {}", metric.name))?,
            _ => *values
                .get(metric.name)
                .ok_or_else(|| format!("{} was not measured", metric.name))?,
        };
        Ok(doc.set(metric.name, reading(value, metric.unit)))
    })
}

fn run_workload(options: &Options) -> Result<bool, String> {
    let process_start = Instant::now();
    let Options { spec, seed, .. } = *options;
    let env = Environment::capture();
    let mut warnings: Vec<String> = env.load_warning().into_iter().collect();
    if options.quick {
        warnings.push("--quick: 1 warm-up + 3 passes, not comparable with full runs".into());
    }
    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("{}: {e}", options.out_dir.display()))?;

    let m = measure(options, process_start)?;
    let Ledger { attempted, failed, failures, .. } = &m.ledger;

    // End-to-end metrics, always from the untraced passes.
    let untraced: Vec<&Pass> = m.passes.iter().filter(|p| !p.traced).collect();
    let virt_ms: Vec<f64> = untraced.iter().map(|p| ms(p.virt_ns())).collect();
    let host_ms: Vec<f64> = untraced.iter().map(|p| p.host_ms()).collect();
    let wall_ms: Vec<f64> = untraced.iter().map(|p| ms(p.host_ns)).collect();
    let slowdowns: Vec<f64> = untraced.iter().map(|p| p.slowdown).collect();
    let end_to_end = [median(&virt_ms), median(&host_ms), median(&m.setup_s)];
    let (virt_lo, virt_hi) = min_max(&virt_ms);
    let host_tail = tail(&host_ms);

    // A traced run reports the per-layer metrics instead, and writes the
    // spans out.
    let metrics = if options.trace {
        let per_layer = per_layer_metrics(options, &m)?;
        let meta =
            Json::obj().set("workload", spec.name).set("seed", seed).set("env", env.to_json());
        let path = options.out_dir.join(format!("{}-seed{seed}.trace.json", spec.name));
        std::fs::write(&path, chrome_trace(&m.recorder.finish(), meta).to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {}", path.display());
        per_layer
    } else {
        END_TO_END.iter().zip(end_to_end).fold(Json::obj(), |doc, (metric, value)| {
            doc.set(metric.name, reading(value, metric.unit))
        })
    };

    // The result record: appended to results.jsonl, one line per run. The
    // end-to-end readings carry their annotations here — sample counts,
    // quartiles, the tail, and the raw wall values beside the normalised.
    let mut host = reading(end_to_end[1], "ms")
        .set("samples", host_ms.len())
        .set("wall_ms", median(&wall_ms))
        .set("slowdown", median(&slowdowns));
    if let Some([q1, _, q3]) = quartiles(&host_ms) {
        host = host.set("q1", q1).set("q3", q3);
    }
    if let Some(t) = host_tail {
        host = host.set("tail_percentile", t.percentile).set("tail_value", t.value);
    }
    let virt = reading(end_to_end[0], "sim_ms")
        .set("samples", virt_ms.len())
        .set("min", virt_lo)
        .set("max", virt_hi);
    let setup = reading(end_to_end[2], "s")
        .set("samples", m.setup_s.len())
        .set("wall_s", median(&m.setup_wall_s));
    let mut record = Json::obj()
        .set("schema", "dsm-benchmark/1")
        .set("workload", spec.name)
        .set("seed", seed)
        .set("seconds", options.seconds)
        .set("trace", u64::from(options.trace))
        .set("quick", options.quick)
        .set("deterministic", spec.deterministic)
        .set("env", env.to_json())
        .set("warnings", &warnings[..])
        .set("warmup_passes", m.warmups)
        .set("passes", untraced.len())
        .set("traced_passes", m.passes.len() - untraced.len())
        .set("cases_attempted", *attempted)
        .set("cases_failed", *failed)
        .set("failures", &failures[..])
        .set(
            "end_to_end",
            Json::obj().set("virt_ms", virt).set("host_ms", host).set("setup_s", setup),
        )
        .set("exact", exact_json(untraced[0]))
        .set("pass_wall_ms", &wall_ms[..])
        .set("pass_slowdown", &slowdowns[..])
        .set("pass_virt_ms", &virt_ms[..]);
    if options.trace {
        record = record.set("per_layer", metrics.clone());
    }
    let results = options.out_dir.join("results.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| writeln!(f, "{record}"))
        .map_err(|e| format!("{}: {e}", results.display()))?;

    // The human-readable report, then the contract's one-line summary.
    println!(
        "workload {}  seed {seed}  {} measured + {} traced passes after {} warm-up  (cases: \
         {attempted} attempted, {failed} failed)",
        spec.name,
        untraced.len(),
        m.passes.len() - untraced.len(),
        m.warmups,
    );
    for failure in failures {
        println!("FAILED {failure}");
    }
    for warning in &warnings {
        println!("warning: {warning}");
    }
    for (name, r) in metrics.fields().expect("metrics is an object") {
        let value = r.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = r.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    if !options.trace {
        println!(
            "  host_ms: {} samples, wall median {:.3} ms at slowdown {:.3}, {}; virt_ms: min \
             {virt_lo:.6} max {virt_hi:.6}; setup_s: {} set-up(s)",
            host_ms.len(),
            median(&wall_ms),
            median(&slowdowns),
            host_tail.map_or("no percentile has 10 samples beyond it".to_string(), |t| format!(
                "p{} = {:.3} ms",
                t.percentile, t.value
            )),
            m.setup_s.len()
        );
    }
    println!("results: {}", results.display());
    println!(
        "{}",
        Json::obj()
            .set("correct", *failed == 0)
            .set("attempted", *attempted)
            .set("failed", *failed)
            .set("metrics", metrics)
    );
    // A run that measured and reported exits 0 even with failed cases: the
    // summary's `correct` / `failed` carry that, as the driver expects.
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_benchmark::metrics::WORKLOADS;

    /// A two-processor miniature of a workload, quick enough for a unit
    /// test.
    const MINI: Spec = Spec {
        name: "mini",
        cases: &[
            case(Jacobi, Validate, 2, (64, 8, 2), TreadMarks),
            case(Gauss, Compiled, 2, (16, 8, 3), TreadMarks),
        ],
        warmups: 1,
        faults: false,
        deterministic: true,
    };

    #[test]
    fn seed_to_inputs_is_a_pure_function() {
        for spec in &SPECS {
            assert_eq!(inputs(spec, 7), inputs(spec, 7), "{}", spec.name);
            assert_ne!(inputs(spec, 7), inputs(spec, 8), "{}: the seed must matter", spec.name);
            for input in inputs(spec, 7) {
                assert_eq!(input.skew_ns.len(), input.spec.nprocs);
                assert!(input.skew_ns.iter().all(|&s| s < MAX_SKEW_NS));
            }
        }
        assert_eq!(fault_seed(3, 5, 1), fault_seed(3, 5, 1));
        assert_ne!(fault_seed(3, 5, 1), fault_seed(4, 5, 1));
        assert_ne!(fault_seed(3, 5, 1), fault_seed(3, 6, 1));
        assert_ne!(fault_seed(3, 5, 1), fault_seed(3, 5, 2));
    }

    #[test]
    fn the_spec_table_matches_the_declared_workloads() {
        let declared: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        let defined: Vec<_> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(declared, defined);
        // Every apps.<case> metric names a case some workload runs.
        for m in PER_LAYER.iter().filter(|m| m.name.starts_with("apps.") && m.name.ends_with("_ms"))
        {
            let label = m.name["apps.".len()..].rsplit_once('.').unwrap().0;
            assert!(SPECS.iter().flat_map(|s| s.cases).any(|c| c.label() == label), "{label}");
        }
        // Only faulty workloads carry a fault schedule.
        assert_eq!(schedule_of(&SPECS[0], 300), None);
        assert_eq!(schedule_of(&SPECS[5], 300), Some(300 % FAULT_SCHEDULES));
    }

    #[test]
    fn a_clean_run_has_no_failures_and_repeats_exactly() {
        let mut ledger = Ledger::default();
        let (inputs, refs) = set_up(&MINI, 1, MINI.warmups, &mut ledger).unwrap();
        let a = run_pass(&inputs, 1, None, None);
        let b = run_pass(&inputs, 1, None, None);
        ledger.judge_pass(&MINI, &refs, None, &a);
        ledger.judge_pass(&MINI, &refs, None, &b);
        assert_eq!((ledger.attempted, ledger.failed), (6, 0), "{:?}", ledger.failures);
        assert_eq!(a.virt_ns(), b.virt_ns());
        assert_eq!(exact_json(&a), exact_json(&b));
        assert!(a.virt_ns() > 0 && a.host_ns > 0);
    }

    #[test]
    fn one_flipped_reference_bit_makes_cases_failed_non_zero() {
        let mut ledger = Ledger::default();
        let (inputs, mut refs) = set_up(&MINI, 1, 0, &mut ledger).unwrap();
        refs.checksum_bits[1][0] ^= 1;
        let pass = run_pass(&inputs, 1, None, None);
        ledger.judge_pass(&MINI, &refs, None, &pass);
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert!(ledger.failures[0].contains("mini gauss: checksum of P0"), "{:?}", ledger.failures);
    }

    #[test]
    fn a_drifting_virtual_time_fails_a_deterministic_workload_only() {
        let mut ledger = Ledger::default();
        let (inputs, refs) = set_up(&MINI, 1, 0, &mut ledger).unwrap();
        let first = run_pass(&inputs, 1, None, None);
        ledger.judge_pass(&MINI, &refs, None, &first);
        // Different skews: same checksums, different virtual time.
        let drifted = run_pass(&super::inputs(&MINI, 2), 1, None, None);
        assert_ne!(first.virt_ns(), drifted.virt_ns());
        let lock_based = Spec { deterministic: false, ..MINI };
        ledger.judge_pass(&lock_based, &refs, None, &drifted);
        assert_eq!(ledger.failed, 0);
        ledger.judge_pass(&MINI, &refs, None, &drifted);
        assert!(ledger.failed >= 1);
        assert!(ledger.failures[0].contains("first execution"), "{:?}", ledger.failures);
    }

    #[test]
    fn a_panicking_case_is_a_failure_not_an_unwind() {
        // Gauss refuses as many elimination steps as it has rows.
        let bad = CaseInput {
            spec: case(Gauss, TreadMarks, 2, (4, 8, 4), TreadMarks),
            skew_ns: vec![0, 0],
        };
        let outcome = run_case(&bad, TreadMarks, None, None);
        assert!(matches!(outcome, Err(Failure::Panicked(ref why)) if why.contains("elimination")));
    }

    #[test]
    fn faulty_schedules_are_reproducible_and_transparent() {
        let spec = Spec { faults: true, ..MINI };
        let mut ledger = Ledger::default();
        let (inputs, refs) = set_up(&spec, 4, 0, &mut ledger).unwrap();
        let a = run_pass(&inputs, 4, Some(0), None);
        let again = run_pass(&inputs, 4, Some(0), None);
        let other = run_pass(&inputs, 4, Some(1), None);
        for (schedule, pass) in [(0, &a), (0, &again), (1, &other)] {
            ledger.judge_pass(&spec, &refs, Some(schedule), pass);
        }
        assert_eq!(ledger.failed, 0, "{:?}", ledger.failures);
        assert_eq!(exact_json(&a), exact_json(&again));
    }

    #[test]
    fn a_traced_pass_records_the_span_tree_and_the_per_layer_metrics() {
        let mut ledger = Ledger::default();
        let (inputs, refs) = set_up(&MINI, 1, 0, &mut ledger).unwrap();
        let recorder = Recorder::new();
        let plain = run_pass(&inputs, 1, None, None);
        let trace = PassTrace { recorder: &recorder, workload: "mini", pass: 0 };
        let traced = run_pass(&inputs, 1, None, Some(&trace));
        assert_eq!(plain.virt_ns(), traced.virt_ns(), "tracing must not move the model");
        let spans = recorder.finish();
        // One pass span, one span per case, one per processor per case.
        assert_eq!(spans.len(), 1 + 2 + 4);
        let pass = spans.iter().find(|s| s.parent.is_none()).unwrap();
        let cases: Vec<_> = spans.iter().filter(|s| s.parent == Some(pass.id)).collect();
        assert_eq!(cases.len(), 2);
        for case in cases {
            assert_eq!(spans.iter().filter(|s| s.parent == Some(case.id)).count(), 2);
        }
        // The critical processor's buckets add up to its final clock minus
        // its start skew.
        let last = traced.clocks[0].iter().max_by_key(|c| c.end_ns).unwrap();
        assert!(last.waited_ns + last.overhead_ns + last.computed_ns <= last.end_ns);
        assert!(last.waited_ns + last.overhead_ns + last.computed_ns + MAX_SKEW_NS > last.end_ns);
        let metrics = span_metrics(&MINI, &refs, &[&plain, &traced], &traced);
        let get = |name: &str| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("treadmarks.imbalance_x") >= 1.0);
        assert_eq!(get("treadmarks.virt_spread_pct"), 0.0);
        assert!(get("apps.jacobi.virt_ms") > 0.0 && get("apps.gauss.host_ms") > 0.0);
        assert_eq!(get("apps.sor.virt_ms"), 0.0, "a case the workload does not run reads 0");
        assert!(get("apps.ref_ratio_x") > 0.0);
    }

    #[test]
    fn every_non_probe_metric_is_produced_and_nothing_undeclared() {
        let mut ledger = Ledger::default();
        let (inputs, refs) = set_up(&MINI, 1, 0, &mut ledger).unwrap();
        let recorder = Recorder::new();
        let plain = run_pass(&inputs, 1, None, None);
        let trace = PassTrace { recorder: &recorder, workload: "mini", pass: 0 };
        let traced = run_pass(&inputs, 1, None, Some(&trace));
        let mut produced: Vec<&str> = Vec::new();
        produced.extend(exact_counters(&plain).iter().map(|(n, _)| *n));
        produced.extend(
            span_metrics(&MINI, &refs, &[&plain, &traced], &traced).iter().map(|(n, _)| *n),
        );
        produced.extend(host_metrics(&[&plain], &[&traced], 1.0).iter().map(|(n, _)| *n));
        let declared: Vec<&str> =
            PER_LAYER.iter().filter(|m| m.source != Source::Probe).map(|m| m.name).collect();
        assert_eq!(produced, declared, "same names, same order as the metric table");
    }

    #[test]
    fn options_parse_the_contract_command_line() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_options(&args("--workload wide64 --seed 9 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (o.spec.name, o.seed, o.seconds, o.trace, o.quick),
            ("wide64", 9, 2.5, true, false)
        );
        let o = parse_options(&args("--workload tmk8 --quick")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace, o.quick), (0, RUN_SECONDS as f64, false, true));
        for bad in [
            "",
            "--workload nope",
            "--workload tmk8 --trace 2",
            "--workload tmk8 --seed x",
            "--workload tmk8 --seconds 0",
            "--workload",
            "--workload tmk8 --frobnicate",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
