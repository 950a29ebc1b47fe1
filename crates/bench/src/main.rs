//! Command-line entry point of the benchmark harness.
//!
//! * `cargo run -p dsm-bench` — run the suite and write `BENCH_PR8.json`
//!   (path configurable with `--out`), printing a summary table.
//! * `cargo run -p dsm-bench -- --check` — run the suite and compare it
//!   against the checked-in baseline (path configurable with
//!   `--baseline`), exiting non-zero unless every record is byte-equal to
//!   its baseline line (every differing record is listed first, with both
//!   lines; differing IS rows are informational).
//! * `cargo run -p dsm-bench -- --explain <app>` — dump the kernel's
//!   compiled plan (phase classifications, refusal reasons, message
//!   counts) deterministically, without running the suite. May be given
//!   more than once.
//! * `cargo run -p dsm-bench -- --race <app>` — run `<app>` (`jacobi`,
//!   `sor`, `is`, `gauss` or `all`) in every variant across the cluster
//!   matrix twice, with the race detector off and collecting, and print
//!   the overhead table. These records are informational and never gated.
//! * `cargo run -p dsm-bench -- --chaos <app>` — run `<app>` (`jacobi`,
//!   `sor`, `is`, `gauss` or `all`) in every variant at 2/4/8 processors
//!   under three seeded fault schedules, assert every checksum bit-identical to the
//!   fault-free run (non-zero exit otherwise) and print the
//!   fault-injection table. The records themselves are informational and
//!   never gated; only checksum transparency and race freedom are enforced.
//! * `cargo run -p dsm-bench -- --scale` — run the wide-cluster matrix
//!   (Validate and Compiled at 32/64/128 processors on 256-column grids),
//!   print the table plus a reactor-pool summary, and write
//!   `BENCH_PR9.json` (path configurable with `--out`); with `--check`,
//!   compare against the checked-in `BENCH_PR9.json` instead (path
//!   configurable with `--baseline`), byte for byte like the standard
//!   suite.
//! * `--reactors N` — pin the protocol-reactor pool to `N` poll loops for
//!   the suite and scale runs (default: one per host core). Records are
//!   bit-identical for any value; the flag exists to exercise a specific
//!   multiplexing degree and to compare host-side pool behaviour.

use dsm_bench::{
    chaos_suite, check_byte_equal, check_chaos, explain_app, probe_reactor_pool, race_suite,
    render_json, render_scale_json, scale_suite, suite, BenchRecord, SCALE_NPROCS,
};

/// `--check`: holds `records` to the baseline file byte for byte, printing
/// the per-record report and exiting non-zero on any difference.
fn gate(records: &[BenchRecord], baseline: &str) {
    let baseline_json = match std::fs::read_to_string(baseline) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("cannot read baseline {baseline}: {err}");
            std::process::exit(1);
        }
    };
    match check_byte_equal(records, &baseline_json) {
        Ok(report) => {
            for line in report {
                eprintln!("  {line}");
            }
            eprintln!("byte-equal gate passed against {baseline}");
        }
        Err(err) => {
            eprintln!("byte-equal gate FAILED against {baseline}:\n{err}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut scale = false;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut explain: Vec<String> = Vec::new();
    let mut race: Option<String> = None;
    let mut chaos: Option<String> = None;
    let mut reactors: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--scale" => scale = true,
            "--out" => out = Some(it.next().expect("--out needs a path").clone()),
            "--baseline" => baseline = Some(it.next().expect("--baseline needs a path").clone()),
            "--explain" => explain.push(it.next().expect("--explain needs an app name").clone()),
            "--race" => race = Some(it.next().expect("--race needs an app name").clone()),
            "--chaos" => chaos = Some(it.next().expect("--chaos needs an app name").clone()),
            "--reactors" => {
                let n = it.next().expect("--reactors needs a pool size");
                reactors = Some(n.parse().expect("--reactors needs a positive integer"));
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    if let Some(app) = chaos {
        if !matches!(app.as_str(), "jacobi" | "sor" | "is" | "gauss" | "all") {
            eprintln!("unknown kernel {app:?} (known: jacobi, sor, is, gauss, all)");
            std::process::exit(2);
        }
        eprintln!("running the chaos suite for {app} (SP/2 cost model, seeded fault schedules)...");
        let records = chaos_suite(&app);
        println!(
            "{:8} {:14} {:>3} {:>5} {:>12} {:>12} {:>7} {:>5} {:>7} {:>7} {:>6} {:>6}",
            "app",
            "variant",
            "np",
            "seed",
            "clean_us",
            "chaos_us",
            "retrans",
            "dups",
            "reorder",
            "delays",
            "match",
            "races"
        );
        for r in &records {
            println!(
                "{:8} {:14} {:>3} {:>5} {:>12} {:>12} {:>7} {:>5} {:>7} {:>7} {:>6} {:>6}",
                r.app,
                r.variant,
                r.nprocs,
                r.seed,
                r.time_ns_clean / 1_000,
                r.time_ns_chaos / 1_000,
                r.retransmits,
                r.dups,
                r.reorders,
                r.delays,
                r.checksums_match,
                r.races
            );
        }
        if let Err(err) = check_chaos(&records) {
            eprintln!("chaos transparency FAILED:\n{err}");
            std::process::exit(1);
        }
        eprintln!("chaos transparency held: every checksum bit-identical, zero races");
        return;
    }

    if let Some(app) = race {
        if !matches!(app.as_str(), "jacobi" | "sor" | "is" | "gauss" | "all") {
            eprintln!("unknown kernel {app:?} (known: jacobi, sor, is, gauss, all)");
            std::process::exit(2);
        }
        eprintln!("running the race-detector overhead suite for {app} (SP/2 cost model)...");
        let records = race_suite(&app);
        println!(
            "{:8} {:14} {:>3} {:>12} {:>12} {:>9} {:>12} {:>12} {:>6}",
            "app", "variant", "np", "off_us", "on_us", "ovhd_%", "bytes_off", "bytes_on", "races"
        );
        for r in &records {
            println!(
                "{:8} {:14} {:>3} {:>12} {:>12} {:>8}.{:02} {:>12} {:>12} {:>6}",
                r.app,
                r.variant,
                r.nprocs,
                r.time_ns_off / 1_000,
                r.time_ns_on / 1_000,
                r.overhead_centipct / 100,
                r.overhead_centipct % 100,
                r.bytes_off,
                r.bytes_on,
                r.races
            );
        }
        return;
    }

    if scale {
        let pool = |nprocs: usize| {
            reactors.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
                    .min(nprocs)
            })
        };
        eprintln!(
            "running the dsm-bench scale matrix (SP/2 cost model, nprocs {SCALE_NPROCS:?})..."
        );
        let records = scale_suite(reactors);
        println!(
            "{:8} {:16} {:>4} {:>4} {:>12} {:>8} {:>10} {:>10}",
            "app", "variant", "np", "pool", "time_us", "msgs", "bytes", "segv"
        );
        for r in &records {
            println!(
                "{:8} {:16} {:>4} {:>4} {:>12} {:>8} {:>10} {:>10}",
                r.app,
                r.variant,
                r.nprocs,
                pool(r.nprocs),
                r.time_ns / 1_000,
                r.messages,
                r.bytes,
                r.page_faults
            );
        }
        // The reactor-pool summary: host-side counters (poll sweeps,
        // doorbell wakeups, served-per-wakeup batching, peak backlog) from
        // one representative wide run per cluster size. Informational —
        // scheduling-dependent, never part of the JSON records.
        eprintln!("reactor pool (host-side, informational):");
        eprintln!(
            "  {:>4} {:>5} {:>10} {:>10} {:>10} {:>12} {:>10}",
            "np", "pool", "polls", "wakeups", "served", "srv/wakeup", "max_depth"
        );
        for &nprocs in &SCALE_NPROCS {
            let snaps = probe_reactor_pool(nprocs, reactors);
            let sum =
                |f: fn(&sp2model::ReactorSnapshot) -> u64| -> u64 { snaps.iter().map(f).sum() };
            let (polls, wakeups, served) =
                (sum(|s| s.polls), sum(|s| s.wakeups), sum(|s| s.served));
            let depth = snaps.iter().map(|s| s.max_queue_depth).max().unwrap_or(0);
            let per_wakeup = if wakeups == 0 { 0.0 } else { served as f64 / wakeups as f64 };
            eprintln!(
                "  {:>4} {:>5} {:>10} {:>10} {:>10} {:>12.2} {:>10}",
                nprocs,
                snaps.len(),
                polls,
                wakeups,
                served,
                per_wakeup,
                depth
            );
        }
        if check {
            gate(&records, baseline.as_deref().unwrap_or("BENCH_PR9.json"));
        } else {
            let out = out.unwrap_or_else(|| String::from("BENCH_PR9.json"));
            std::fs::write(&out, render_scale_json(&records)).expect("write scale output");
            eprintln!("wrote {out}");
        }
        return;
    }
    let out = out.unwrap_or_else(|| String::from("BENCH_PR8.json"));

    if !explain.is_empty() {
        for app in &explain {
            match explain_app(app) {
                Some(dump) => {
                    println!("=== {app} ===");
                    print!("{dump}");
                }
                None => {
                    eprintln!("unknown kernel {app:?} (known: jacobi, sor, is, gauss)");
                    std::process::exit(2);
                }
            }
        }
        // The reactor-pool plan: how the runtime would serve each matrix
        // point on this host (`--reactors` pins the pool). Derived, not
        // measured — the dump stays deterministic for a given host/flags.
        let cores =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        println!("=== reactor plan ===");
        for nprocs in [2usize, 4, 8, 16, 32, 64, 128] {
            let pool = reactors.unwrap_or(cores).min(nprocs);
            println!(
                "nprocs {nprocs:>4}: {pool} reactor{} ({:.1} nodes/reactor), \
                 {} host threads (seed design: {})",
                if pool == 1 { "" } else { "s" },
                nprocs as f64 / pool as f64,
                nprocs + pool + 1,
                2 * nprocs + 1
            );
        }
        return;
    }

    if reactors.is_some() {
        eprintln!(
            "note: --reactors applies to --scale runs; the standard suite uses the default pool"
        );
    }
    eprintln!("running the dsm-bench suite (SP/2 cost model)...");
    let records = suite();
    println!(
        "{:8} {:14} {:>3} {:>12} {:>12} {:>10} {:>8} {:>8} {:>12} {:>8}",
        "app",
        "variant",
        "np",
        "time_us",
        "table_locks",
        "tlb_hits",
        "segv",
        "msgs",
        "sync_wait_us",
        "b_elim"
    );
    for r in &records {
        println!(
            "{:8} {:14} {:>3} {:>12} {:>12} {:>10} {:>8} {:>8} {:>12} {:>8}",
            r.app,
            r.variant,
            r.nprocs,
            r.time_ns / 1_000,
            r.table_lock_acquires,
            r.tlb_hits,
            r.page_faults,
            r.messages,
            r.sync_wait_ns / 1_000,
            r.barriers_eliminated
        );
    }

    if check {
        gate(&records, baseline.as_deref().unwrap_or("BENCH_PR8.json"));
    } else {
        std::fs::write(&out, render_json(&records)).expect("write benchmark output");
        eprintln!("wrote {out}");
    }
}
