//! `probes` — benchmark-owned micro-programs that time single public calls
//! of each layer, on both clocks: host nanoseconds (the median over at
//! least 1000 calls, taken in batches where a call is shorter than the
//! timer) and virtual microseconds (the simulated clock's delta).
//!
//! Unlike `workloads`, this binary uses the wide public surface — channels,
//! diffs, the page table, raw endpoints, the `ctrt` calls, the compiler —
//! so a refactor of a lower crate may break it without breaking the
//! end-to-end benchmark. Every timed batch is one span; with `--trace-file`
//! the spans are written as Chrome-trace JSON.
//!
//! The last line of standard output is
//! `{"metrics": {"<layer>.<metric>": {"value": …, "unit": …}, …}}`, which
//! `workloads --trace 1` merges into its per-layer report.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ctrt_dsm::ctrt::{
    neighbor_sync, push_phase, validate, validate_w_sync, Access, Push, RegularSection, SyncOp,
};
use ctrt_dsm::dsm_apps::{gauss_program, jacobi_program, sor_program};
use ctrt_dsm::msgnet::{Cluster, NodeId, Port};
use ctrt_dsm::pagedmem::{Addr, AddrRange, Diff, PageId, PageTable, Protection, PAGE_SIZE};
use ctrt_dsm::racecheck::overlap;
use ctrt_dsm::rsdcomp::{self, Program};
use ctrt_dsm::sp2model::{CostModel, VirtualTime};
use ctrt_dsm::treadmarks::{Dsm, DsmConfig, NetFaults, Process, SharedArray, SharedMatrix};
use dsm_core::channel::unbounded;

use dsm_benchmark::json::Json;
use dsm_benchmark::metrics::{reading, Source, PER_LAYER};
use dsm_benchmark::span::{chrome_trace, Recorder, Span};
use dsm_benchmark::stats::median;

/// `u64` elements per page.
const WORDS: usize = PAGE_SIZE / 8;

/// The paper's measured primitives (Section 5), the model's only reference
/// data: minimum round trip, free lock acquire, 8-processor barrier.
const PAPER_ROUNDTRIP_US: f64 = 365.0;
const PAPER_LOCK_US: f64 = 427.0;
const PAPER_BARRIER8_US: f64 = 893.0;

/// The 8-processor barrier under `DsmConfig::with_flat_barrier`, in virtual
/// µs: an input of `sp2model.calib_err_pct`, not a metric of its own.
const FLAT_BARRIER8: &str = "treadmarks.barrier8_flat_virt_us";

/// Batches below which a median is not one; [`Ctx::time`] never runs fewer.
const MIN_BATCHES: usize = 20;

/// Shared by every probe: the span recorder and the call budget.
struct Ctx {
    recorder: Recorder,
    /// Calls per probe of a cheap call: 1000, or 100 with `--quick`.
    calls: usize,
}

impl Ctx {
    /// Times one batch of `batch` back-to-back calls of `f` as one span and
    /// returns the nanoseconds per call.
    fn batch(&self, name: &'static str, lane: u32, batch: usize, mut f: impl FnMut()) -> f64 {
        let start_ns = self.recorder.now_ns();
        let started = Instant::now();
        for _ in 0..batch {
            f();
        }
        let per_call = started.elapsed().as_nanos() as f64 / batch as f64;
        self.recorder.record(Span {
            id: self.recorder.next_id(),
            parent: None,
            name: name.to_string(),
            layer: layer_of(name),
            lane,
            start_ns,
            end_ns: self.recorder.now_ns(),
            args: vec![("calls".into(), batch.into())],
        });
        per_call
    }

    /// Times `f` in batches of `batch` calls until at least `calls` calls
    /// have been made — and at least [`MIN_BATCHES`], so that the median is one —
    /// and returns the median nanoseconds per call. `batch` is chosen so
    /// that a batch outlasts the timer by two orders of magnitude.
    fn time(
        &self,
        name: &'static str,
        lane: u32,
        calls: usize,
        batch: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        let batches = calls.div_ceil(batch).max(MIN_BATCHES);
        median(&(0..batches).map(|_| self.batch(name, lane, batch, &mut f)).collect::<Vec<_>>())
    }

    /// A `DsmConfig` on the SP/2 model, as the workloads use.
    fn config(&self, nprocs: usize) -> DsmConfig {
        DsmConfig::new(nprocs).with_cost_model(CostModel::sp2())
    }
}

/// The layer (crate) a metric belongs to: the part before the first dot.
fn layer_of(name: &'static str) -> &'static str {
    name.split_once('.').map_or(name, |(layer, _)| layer)
}

fn now_ns(p: &Process) -> u64 {
    p.clock().now().as_nanos()
}

type Readings = Vec<(&'static str, f64)>;

// ---------------------------------------------------------------------
// core, pagedmem, msgnet, racecheck, rsdcomp: plain calls
// ---------------------------------------------------------------------

fn core_probes(ctx: &Ctx) -> Readings {
    let (tx, rx) = unbounded::<u64>();
    let send_recv = ctx.time("core.chan_send_recv_ns", 0, ctx.calls, 64, || {
        tx.send(black_box(1));
        black_box(rx.recv().expect("the sender is alive"));
    });
    // Two threads, one message in flight: the wake-up latency every
    // request/reply pair of the simulator pays on the host.
    let (ping_tx, ping_rx) = unbounded::<u64>();
    let (pong_tx, pong_rx) = unbounded::<u64>();
    let pingpong = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(v) = ping_rx.recv() {
                pong_tx.send(v);
            }
        });
        let ns = ctx.time("core.chan_pingpong_ns", 0, ctx.calls, 8, || {
            ping_tx.send(black_box(1));
            black_box(pong_rx.recv().expect("the echo thread is alive"));
        });
        // Disconnects the echo thread's receiver so the scope can join it.
        drop(ping_tx);
        ns
    });
    vec![("core.chan_send_recv_ns", send_recv), ("core.chan_pingpong_ns", pingpong)]
}

fn pagedmem_probes(ctx: &Ctx) -> Readings {
    let twin = vec![0u8; PAGE_SIZE];
    // Sparse: 8 modified words spread over the page. Dense: every byte.
    let mut sparse = twin.clone();
    for k in 0..8 {
        sparse[k * 512 + 4] = 0xff;
    }
    let dense = vec![0xa5u8; PAGE_SIZE];
    let create_sparse = ctx.time("pagedmem.diff_create_sparse_ns", 0, ctx.calls, 4, || {
        black_box(Diff::create(black_box(&twin), black_box(&sparse)));
    });
    let create_dense = ctx.time("pagedmem.diff_create_dense_ns", 0, ctx.calls, 4, || {
        black_box(Diff::create(black_box(&twin), black_box(&dense)));
    });
    let dense_diff = Diff::create(&twin, &dense);
    let mut page = twin.clone();
    let apply = ctx.time("pagedmem.diff_apply_ns", 0, ctx.calls, 4, || {
        black_box(&dense_diff).apply(black_box(&mut page)).expect("a whole page");
    });

    const PAGES: usize = 512;
    let mut table = PageTable::new();
    for page in 0..PAGES {
        table.map_zeroed(PageId(page), Protection::ReadWrite);
    }
    let mut next = 0;
    let lookup = ctx.time("pagedmem.frame_lookup_ns", 0, ctx.calls, 256, || {
        next = (next * 61 + 17) % PAGES;
        black_box(table.frame(PageId(black_box(next))).expect("mapped above"));
    });
    const RUN: usize = 64;
    let range = AddrRange::new(Addr::ZERO, RUN * PAGE_SIZE);
    let mut buf = vec![0u8; RUN * PAGE_SIZE];
    let read = ctx.time("pagedmem.read_checked_ns_per_page", 0, ctx.calls / RUN, 1, || {
        table.read_checked(range, black_box(&mut buf)).expect("mapped read-write");
    });
    let write = ctx.time("pagedmem.write_checked_ns_per_page", 0, ctx.calls / RUN, 1, || {
        table.write_checked(range, black_box(&buf)).expect("mapped read-write");
    });
    vec![
        ("pagedmem.diff_create_sparse_ns", create_sparse),
        ("pagedmem.diff_create_dense_ns", create_dense),
        ("pagedmem.diff_apply_ns", apply),
        ("pagedmem.frame_lookup_ns", lookup),
        ("pagedmem.read_checked_ns_per_page", read / RUN as f64),
        ("pagedmem.write_checked_ns_per_page", write / RUN as f64),
    ]
}

fn msgnet_probes(ctx: &Ctx) -> Readings {
    // One 8-byte message from node 0 to node 1 and its receipt, on one
    // thread. Send times advance so that, with faults on, every message
    // draws its own fate (fault decisions are keyed on the send time).
    let one_way = |name: &'static str, faults: Option<NetFaults>| {
        let endpoints =
            Cluster::<u64>::new_with_faults(2, CostModel::sp2(), faults).into_endpoints();
        let (a, b) = (&endpoints[0], &endpoints[1]);
        let mut at = VirtualTime::ZERO;
        ctx.time(name, 0, ctx.calls, 32, || {
            at = a.send(NodeId(1), Port::Reply, black_box(7), 8, at, true);
            black_box(b.recv(Port::Reply).expect("the sender is alive"));
        })
    };
    let clean = one_way("msgnet.send_recv_ns", None);
    let reliable = one_way("msgnet.send_recv_reliable_ns", Some(NetFaults::chaos(1)));
    // The modelled minimum round trip: an empty request with interrupt and
    // the empty reply sent the moment it arrives.
    let endpoints = Cluster::<u64>::new(2, CostModel::sp2()).into_endpoints();
    let there = endpoints[0].send(NodeId(1), Port::Request, 0, 0, VirtualTime::ZERO, true);
    let back = endpoints[1].send(NodeId(0), Port::Reply, 0, 0, there, true);
    vec![
        ("msgnet.send_recv_ns", clean),
        ("msgnet.send_recv_reliable_ns", reliable),
        ("msgnet.roundtrip_virt_us", back.as_micros_f64()),
    ]
}

fn racecheck_probes(ctx: &Ctx) -> Readings {
    // Two 64-run word sets, interleaved so every run overlaps two others.
    let a: Vec<(u32, u32)> = (0..64).map(|i| (i * 64, i * 64 + 40)).collect();
    let b: Vec<(u32, u32)> = (0..64).map(|i| (i * 64 + 32, i * 64 + 72)).collect();
    let ns = ctx.time("racecheck.overlap_ns", 0, ctx.calls, 16, || {
        black_box(overlap(black_box(&a), black_box(&b)));
    });
    vec![("racecheck.overlap_ns", ns)]
}

/// The three barrier kernels' IR at one size, laid out as the SPMD
/// allocator lays the arrays out (page-aligned, in allocation order) — the
/// way `dsm-bench --explain` builds them.
fn programs(jacobi_sor: (usize, usize, usize), gauss: (usize, usize, usize)) -> [Program; 3] {
    let matrix = |(rows, cols, _): (usize, usize, usize), base: Addr| {
        SharedMatrix::new(SharedArray::<f64>::new(base, rows * cols), rows, cols)
    };
    let second =
        |(rows, cols, _): (usize, usize, usize)| Addr::new(rows * cols * 8).page_align_up();
    [
        jacobi_program(
            &matrix(jacobi_sor, Addr::ZERO),
            &matrix(jacobi_sor, second(jacobi_sor)),
            jacobi_sor.2,
        ),
        sor_program(&matrix(jacobi_sor, Addr::ZERO), jacobi_sor.2),
        gauss_program(&matrix(gauss, Addr::ZERO), &matrix(gauss, second(gauss)), gauss.2),
    ]
}

fn rsdcomp_probes(ctx: &Ctx) -> Readings {
    // Σ of the three programs, at the sizes and widths of `ctrt8` and
    // `plan64` — where every simulated processor pays this itself.
    let compile_all = |name: &'static str, programs: &[Program; 3], nprocs: usize| {
        ctx.time(name, 0, ctx.calls / 20, 1, || {
            for program in programs {
                black_box(rsdcomp::compile(black_box(program), nprocs));
            }
        }) / 1e3
    };
    let np8 = compile_all("rsdcomp.compile_np8_us", &programs((512, 256, 10), (256, 256, 32)), 8);
    let np64 = compile_all("rsdcomp.compile_np64_us", &programs((64, 256, 4), (64, 256, 8)), 64);
    vec![("rsdcomp.compile_np8_us", np8), ("rsdcomp.compile_np64_us", np64)]
}

// ---------------------------------------------------------------------
// treadmarks: the access path, faults, barriers, locks, spawn
// ---------------------------------------------------------------------

fn access_probes(ctx: &Ctx) -> Readings {
    const PAGES: usize = 64;
    let len = PAGES * WORDS;
    let run = Dsm::run(ctx.config(1), |p| {
        let a = p.alloc_array::<u64>(len);
        let mut buf = vec![1u64; len];
        p.set_slice(&a, 0..len, &buf);
        // Sequential element accesses on warm, writable pages: the checked
        // fast path the TreadMarks variants take per element.
        let mut i = 0;
        let get = ctx.time("treadmarks.get_warm_ns", 1, ctx.calls, 4096, || {
            i = (i + 1) % len;
            black_box(p.get(&a, black_box(i)));
        });
        let set = ctx.time("treadmarks.set_warm_ns", 1, ctx.calls, 4096, || {
            i = (i + 1) % len;
            p.set(&a, black_box(i), black_box(3));
        });
        let get_slice =
            ctx.time("treadmarks.get_slice_ns_per_page", 1, ctx.calls / PAGES, 1, || {
                p.get_slice(&a, 0..len, black_box(&mut buf));
            });
        let set_slice =
            ctx.time("treadmarks.set_slice_ns_per_page", 1, ctx.calls / PAGES, 1, || {
                p.set_slice(&a, 0..len, black_box(&buf));
            });
        [get, set, get_slice / PAGES as f64, set_slice / PAGES as f64]
    });
    let [get, set, get_slice, set_slice] = run.results[0];
    vec![
        ("treadmarks.get_warm_ns", get),
        ("treadmarks.set_warm_ns", set),
        ("treadmarks.get_slice_ns_per_page", get_slice),
        ("treadmarks.set_slice_ns_per_page", set_slice),
    ]
}

/// Times one single-element access per page, each of which must take
/// exactly one fault, one span per access; returns
/// `(median virtual µs, median host µs)`.
fn faulting_accesses(
    ctx: &Ctx,
    p: &mut Process,
    name: &'static str,
    pages: usize,
    mut access: impl FnMut(&mut Process, usize),
) -> (f64, f64) {
    let faults_before = p.stats().snapshot().page_faults;
    let (mut virt, mut host) = (Vec::with_capacity(pages), Vec::with_capacity(pages));
    for page in 0..pages {
        let v0 = now_ns(p);
        host.push(ctx.batch(name, 1 + p.proc_id() as u32, 1, || access(p, page)) / 1e3);
        virt.push((now_ns(p) - v0) as f64 / 1e3);
    }
    let taken = p.stats().snapshot().page_faults - faults_before;
    assert_eq!(taken, pages as u64, "{name}: every timed access must fault exactly once");
    (median(&virt), median(&host))
}

fn fault_probes(ctx: &Ctx) -> Readings {
    let pages = ctx.calls;
    let run = Dsm::run(ctx.config(2), |p| {
        let a = p.alloc_array::<u64>(pages * WORDS);
        let me = p.proc_id();
        // P1 maps every page first, so that what is timed below is the
        // common fault — a diff fetch into an invalidated copy — and not a
        // first-touch whole-page fetch.
        if me == 1 {
            for page in 0..pages {
                black_box(p.get(&a, page * WORDS));
            }
        }
        p.barrier();
        if me == 0 {
            for page in 0..pages {
                p.set(&a, page * WORDS, page as u64 + 1);
            }
        }
        p.barrier();
        if me != 1 {
            p.barrier();
            return None;
        }
        // Read faults: P0 modified every page since P1 last saw it.
        let read = faulting_accesses(ctx, p, "treadmarks.read_fault_host_us", pages, |p, page| {
            black_box(p.get(&a, page * WORDS + 1));
        });
        // Write faults: the pages are now valid but write-protected; the
        // first write twins and write-enables.
        let write =
            faulting_accesses(ctx, p, "treadmarks.write_fault_host_us", pages, |p, page| {
                p.set(&a, page * WORDS + 2, 9);
            });
        p.barrier();
        Some((read, write))
    });
    let ((read_virt, read_host), (write_virt, write_host)) =
        run.results[1].expect("processor 1 takes the faults");
    vec![
        ("treadmarks.read_fault_virt_us", read_virt),
        ("treadmarks.read_fault_host_us", read_host),
        ("treadmarks.write_fault_virt_us", write_virt),
        ("treadmarks.write_fault_host_us", write_host),
    ]
}

/// `calls` back-to-back barriers under `config`; returns
/// `(virtual µs, host µs)` per barrier as processor 0 sees them.
fn barrier_probe(ctx: &Ctx, name: &'static str, config: DsmConfig, calls: usize) -> (f64, f64) {
    // What `Ctx::time` will run on processor 0; the others must match it.
    let calls = calls.max(MIN_BATCHES);
    let run = Dsm::run(config, |p| {
        p.barrier();
        let v0 = now_ns(p);
        let host_ns = if p.proc_id() == 0 {
            ctx.time(name, 1, calls, 1, || p.barrier())
        } else {
            for _ in 0..calls {
                p.barrier();
            }
            0.0
        };
        ((now_ns(p) - v0) as f64 / calls as f64 / 1e3, host_ns / 1e3)
    });
    run.results[0]
}

fn sync_probes(ctx: &Ctx) -> Readings {
    let (b8_virt, b8_host) =
        barrier_probe(ctx, "treadmarks.barrier8_host_us", ctx.config(8), ctx.calls);
    let (b64_virt, b64_host) =
        barrier_probe(ctx, "treadmarks.barrier64_host_us", ctx.config(64), ctx.calls / 4);
    // The paper measured TreadMarks' flat, master-centric barrier; the
    // default here is a tree. Calibration compares like with like.
    let (flat8_virt, _) =
        barrier_probe(ctx, FLAT_BARRIER8, ctx.config(8).with_flat_barrier(), ctx.calls);

    // A free lock whose manager is remote: P1 acquires `calls` distinct
    // locks managed by P0 (even ids on two processors), so no acquire ever
    // finds a previous holder to be forwarded to.
    let calls = ctx.calls;
    let run = Dsm::run(ctx.config(2), |p| {
        let mut out = (0.0, 0.0);
        if p.proc_id() == 1 {
            let v0 = now_ns(p);
            let mut lock = 0;
            let host_ns = ctx.time("treadmarks.lock_free_host_us", 2, calls, 1, || {
                p.lock_acquire(lock);
                p.lock_release(lock);
                lock += 2;
            });
            out = ((now_ns(p) - v0) as f64 / (lock / 2) as f64 / 1e3, host_ns / 1e3);
        }
        p.barrier();
        out
    });
    let (lock_virt, lock_host) = run.results[1];

    // A contended chain: all eight processors take the same lock once per
    // round, rounds separated by a barrier. A round's virtual time less the
    // barrier's is eight hand-offs.
    let rounds = (ctx.calls / 8).max(MIN_BATCHES);
    let run = Dsm::run(ctx.config(8), |p| {
        p.barrier();
        let v0 = now_ns(p);
        for _ in 0..rounds {
            p.lock_acquire(1);
            p.lock_release(1);
            p.barrier();
        }
        (now_ns(p) - v0) as f64 / rounds as f64 / 1e3
    });
    let chain = (run.results[0] - b8_virt) / 8.0;

    // An empty run: what `Dsm::run` itself costs the host — thread spawn,
    // cluster and reactor set-up, teardown.
    let spawn = |name: &'static str, nprocs: usize, calls: usize| {
        ctx.time(name, 0, calls, 1, || {
            black_box(Dsm::run(ctx.config(nprocs), |p| p.proc_id()));
        }) / 1e3
    };
    let spawn8 = spawn("treadmarks.spawn8_host_us", 8, ctx.calls / 5);
    let spawn64 = spawn("treadmarks.spawn64_host_us", 64, ctx.calls / 20);
    vec![
        (FLAT_BARRIER8, flat8_virt),
        ("treadmarks.barrier8_virt_us", b8_virt),
        ("treadmarks.barrier8_host_us", b8_host),
        ("treadmarks.barrier64_virt_us", b64_virt),
        ("treadmarks.barrier64_host_us", b64_host),
        ("treadmarks.lock_free_virt_us", lock_virt),
        ("treadmarks.lock_free_host_us", lock_host),
        ("treadmarks.lock_chain8_virt_us", chain),
        ("treadmarks.spawn8_host_us", spawn8),
        ("treadmarks.spawn64_host_us", spawn64),
    ]
}

// ---------------------------------------------------------------------
// ctrt: the `examples/traffic.rs` ring, 8 processors, 3 pages a neighbour
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum RingCall {
    Validate,
    ValidateWSync,
    PushPhase,
    NeighborSync,
}

/// Every processor writes its own 3-page chunk, then obtains its right
/// neighbour's through `call`, round after round. The call alone is timed;
/// returns the medians over every `(processor, round)` of its virtual and
/// host microseconds.
fn ring_probe(ctx: &Ctx, name: &'static str, call: RingCall) -> (f64, f64) {
    const NPROCS: usize = 8;
    const CHUNK: usize = 3 * WORDS;
    let rounds = (ctx.calls / NPROCS).max(MIN_BATCHES);
    let run = Dsm::run(ctx.config(NPROCS), |p| {
        let a = p.alloc_array::<u64>(NPROCS * CHUNK);
        let me = p.proc_id();
        let producer = (me + 1) % NPROCS;
        let consumer = (me + NPROCS - 1) % NPROCS;
        let chunk = |owner: usize| owner * CHUNK..(owner + 1) * CHUNK;
        let mine = RegularSection::array(&a, chunk(me), Access::WriteAll);
        let wanted = RegularSection::array(&a, chunk(producer), Access::Read);
        let mut values = vec![0u64; CHUNK];
        let (mut virt, mut host) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
        for round in 0..rounds {
            values.fill(round as u64 + 1);
            if matches!(call, RingCall::PushPhase) {
                validate(p, std::slice::from_ref(&mine));
            }
            p.set_slice(&a, chunk(me), &values);
            if matches!(call, RingCall::Validate) {
                p.barrier();
            }
            let v0 = now_ns(p);
            host.push(ctx.batch(name, 1 + me as u32, 1, || {
                match call {
                    RingCall::Validate => validate(p, std::slice::from_ref(&wanted)),
                    RingCall::ValidateWSync => {
                        validate_w_sync(p, SyncOp::Barrier, std::slice::from_ref(&wanted))
                    }
                    RingCall::PushPhase => push_phase(
                        p,
                        &[Push::new(consumer, std::slice::from_ref(&mine))],
                        &[producer],
                    ),
                    RingCall::NeighborSync => {
                        neighbor_sync(p, &[producer], &[consumer], std::slice::from_ref(&wanted))
                    }
                };
            }));
            virt.push((now_ns(p) - v0) as f64);
            let got = p.get(&a, producer * CHUNK);
            assert_eq!(got, round as u64 + 1, "P{me} must see P{producer}'s round {round} data");
        }
        (virt, host)
    });
    let virt: Vec<f64> = run.results.iter().flat_map(|(virt, _)| virt.iter().copied()).collect();
    let host: Vec<f64> = run.results.iter().flat_map(|(_, host)| host.iter().copied()).collect();
    (median(&virt) / 1e3, median(&host) / 1e3)
}

fn ctrt_probes(ctx: &Ctx) -> Readings {
    let (validate_virt, validate_host) =
        ring_probe(ctx, "ctrt.validate_host_us", RingCall::Validate);
    let (vws_virt, vws_host) =
        ring_probe(ctx, "ctrt.validate_w_sync_host_us", RingCall::ValidateWSync);
    let (push_virt, push_host) = ring_probe(ctx, "ctrt.push_phase_host_us", RingCall::PushPhase);
    let (nsync_virt, nsync_host) =
        ring_probe(ctx, "ctrt.neighbor_sync_host_us", RingCall::NeighborSync);
    vec![
        ("ctrt.validate_virt_us", validate_virt),
        ("ctrt.validate_host_us", validate_host),
        ("ctrt.validate_w_sync_virt_us", vws_virt),
        ("ctrt.validate_w_sync_host_us", vws_host),
        ("ctrt.push_phase_virt_us", push_virt),
        ("ctrt.push_phase_host_us", push_host),
        ("ctrt.neighbor_sync_virt_us", nsync_virt),
        ("ctrt.neighbor_sync_host_us", nsync_host),
    ]
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

fn main() -> ExitCode {
    let mut quick = false;
    let mut trace_file = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trace-file" => match args.next() {
                Some(path) => trace_file = Some(PathBuf::from(path)),
                None => {
                    eprintln!("probes: --trace-file needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("probes: unknown argument {other:?}\nusage: probes [--quick] [--trace-file FILE]");
                return ExitCode::from(2);
            }
        }
    }
    let ctx = Ctx { recorder: Recorder::new(), calls: if quick { 100 } else { 1000 } };
    let mut readings = Readings::new();
    for probe in [
        core_probes,
        pagedmem_probes,
        msgnet_probes,
        racecheck_probes,
        rsdcomp_probes,
        access_probes,
        fault_probes,
        sync_probes,
        ctrt_probes,
    ] {
        readings.extend(probe(&ctx));
    }
    // The model's error against the only reference data there is: the
    // paper's three measured primitives. Quote it beside every simulated
    // ratio.
    let get = |name: &str| readings.iter().find(|(n, _)| *n == name).expect("measured above").1;
    let flat8 = get(FLAT_BARRIER8);
    let calib = [
        (get("msgnet.roundtrip_virt_us"), PAPER_ROUNDTRIP_US),
        (get("treadmarks.lock_free_virt_us"), PAPER_LOCK_US),
        (flat8, PAPER_BARRIER8_US),
    ]
    .iter()
    .map(|(model, paper)| (model - paper).abs() / paper * 100.0)
    .fold(0.0, f64::max);
    readings.push(("sp2model.calib_err_pct", calib));

    let mut metrics = Json::obj();
    for m in PER_LAYER.iter().filter(|m| m.source == Source::Probe) {
        let value = readings
            .iter()
            .find(|(name, _)| *name == m.name)
            .unwrap_or_else(|| panic!("{} was not measured", m.name))
            .1;
        println!("  {:<40} {:>14.3} {}", m.name, value, m.unit);
        metrics = metrics.set(m.name, reading(value, m.unit));
    }
    println!(
        "  calibration: flat 8-processor barrier {flat8:.3} sim_us against the paper's \
         {PAPER_BARRIER8_US}"
    );
    if quick {
        println!("warning: --quick: 100 calls per probe, not comparable with full runs");
    }
    if let Some(path) = trace_file {
        let meta = Json::obj().set("program", "probes").set("calls", ctx.calls);
        let trace = chrome_trace(&ctx.recorder.finish(), meta).to_string();
        if let Err(e) = std::fs::write(&path, trace) {
            eprintln!("probes: {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("trace: {}", path.display());
    }
    println!("{}", Json::obj().set("quick", quick).set("metrics", metrics));
    ExitCode::SUCCESS
}
