//! Command-line entry point of the benchmark harness.
//!
//! * `cargo run -p dsm-bench` — run the suite and write `BENCH_PR8.json`
//!   (path configurable with `--out`), printing a summary table.
//! * `cargo run -p dsm-bench -- --check` — run the suite and compare it
//!   against the checked-in baseline (path configurable with
//!   `--baseline`), exiting non-zero unless every record is byte-equal to
//!   its baseline line (every differing record is listed first, with both
//!   lines; differing rows of the lock-based IS variants are
//!   informational).
//! * `cargo run -p dsm-bench -- --explain <app>` — dump the kernel's
//!   compiled plan (phase classifications, refusal reasons, message
//!   counts) deterministically, without running the suite. May be given
//!   more than once.
//! * `cargo run -p dsm-bench -- --scale` — run the wide-cluster matrix
//!   (Validate and Compiled at 32/64/128 processors on 256-column grids),
//!   print the table and write `BENCH_PR9.json` (path configurable with
//!   `--out`); with `--check`, compare against the checked-in
//!   `BENCH_PR9.json` instead (path configurable with `--baseline`), byte
//!   for byte like the standard suite.

use dsm_bench::{
    check_byte_equal, explain_app, render_json, render_scale_json, scale_suite, suite, BenchRecord,
    SCALE_NPROCS,
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
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--scale" => scale = true,
            "--out" => out = Some(it.next().expect("--out needs a path").clone()),
            "--baseline" => baseline = Some(it.next().expect("--baseline needs a path").clone()),
            "--explain" => explain.push(it.next().expect("--explain needs an app name").clone()),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    if scale {
        eprintln!(
            "running the dsm-bench scale matrix (SP/2 cost model, nprocs {SCALE_NPROCS:?})..."
        );
        let records = scale_suite();
        println!(
            "{:8} {:16} {:>4} {:>12} {:>8} {:>10} {:>10}",
            "app", "variant", "np", "time_us", "msgs", "bytes", "segv"
        );
        for r in &records {
            println!(
                "{:8} {:16} {:>4} {:>12} {:>8} {:>10} {:>10}",
                r.app,
                r.variant,
                r.nprocs,
                r.time_ns / 1_000,
                r.messages,
                r.bytes,
                r.page_faults
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
        return;
    }

    eprintln!("running the dsm-bench suite (SP/2 cost model)...");
    let records = suite();
    println!(
        "{:8} {:14} {:>3} {:>12} {:>12} {:>8} {:>8} {:>12}",
        "app", "variant", "np", "time_us", "table_locks", "segv", "msgs", "sync_wait_us"
    );
    for r in &records {
        println!(
            "{:8} {:14} {:>3} {:>12} {:>12} {:>8} {:>8} {:>12}",
            r.app,
            r.variant,
            r.nprocs,
            r.time_ns / 1_000,
            r.table_lock_acquires,
            r.page_faults,
            r.messages,
            r.sync_wait_ns / 1_000
        );
    }

    if check {
        gate(&records, baseline.as_deref().unwrap_or("BENCH_PR8.json"));
    } else {
        std::fs::write(&out, render_json(&records)).expect("write benchmark output");
        eprintln!("wrote {out}");
    }
}
