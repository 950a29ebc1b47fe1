//! # ctrt-dsm — An Integrated Compile-Time/Run-Time Software DSM System
//!
//! Facade crate for the workspace reproducing Dwarkadas, Cox and Zwaenepoel,
//! *An Integrated Compile-Time/Run-Time Software Distributed Shared Memory
//! System* (ASPLOS '96).
//!
//! The pieces, bottom-up:
//!
//! * [`sp2model`] — IBM SP/2 cost model, virtual clocks, protocol statistics,
//! * [`pagedmem`] — pages, protection state, twins and diffs,
//! * [`msgnet`] — the simulated cluster interconnect (typed endpoints,
//!   optional seeded faults resolved at send time),
//! * [`racecheck`] — the data-race detector's data model and report log,
//! * [`treadmarks`] — the base lazy-release-consistency DSM runtime,
//! * [`ctrt`] — the augmented compile-time/run-time interface
//!   (`Validate`, `Validate_w_sync`, `Push`),
//! * [`rsdcomp`] — the regular-section compiler and IR executor,
//! * [`dsm_apps`] — four kernels of the paper's evaluation (Jacobi, SOR,
//!   IS, Gauss), each in four protocol variants.
//!
//! See `examples/` for runnable entry points and `crates/bench` for the
//! harness that runs every kernel × variant × cluster size and holds the
//! records to the checked-in `BENCH_PR8.json` / `BENCH_PR9.json`.

pub use ctrt;
pub use dsm_apps;
pub use msgnet;
pub use pagedmem;
pub use racecheck;
pub use rsdcomp;
pub use sp2model;
pub use treadmarks;
