//! # dsm-benchmark — the harness side of the two-clock benchmark
//!
//! This library holds everything the two binaries share and nothing that
//! touches the repository's crates: order statistics ([`stats`]), an ordered
//! JSON value ([`json`]), the span recorder and Chrome-trace writer
//! ([`span`]), `/proc` and toolchain readers ([`host`]), seed expansion
//! ([`rng`]), the correctness verdict ([`verdict`]) and the metric tables
//! that `BENCHMARK.json` is generated from ([`metrics`]).
//!
//! The split is deliberate. `src/bin/workloads.rs` (end-to-end metrics,
//! counters, per-processor spans) compiles against a pinned handful of
//! names from `dsm_apps`, `treadmarks` and `sp2model`; `src/bin/probes.rs`
//! (micro-programs timing single public calls) uses the wider surface. A
//! refactor of the lower crates can break the probes without taking the
//! end-to-end benchmark down with them. See `README.md` for the commands,
//! the metric glossary and the pinned surface.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calib;
pub mod compare;
pub mod host;
pub mod json;
pub mod metrics;
pub mod rng;
pub mod span;
pub mod stats;
pub mod verdict;
