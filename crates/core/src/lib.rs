//! # dsm-core — the workspace's shared substrate crate
//!
//! This crate exists for two reasons, documented here because the
//! alternative (deleting it from the workspace) was considered and
//! rejected:
//!
//! 1. **Offline dependency gating.** The reproduction must build in a
//!    hermetic environment with no access to crates.io. The runtime crates
//!    need exactly two things usually imported from third-party crates: an
//!    unbounded MPMC-ish channel whose receiver can be shared between a
//!    node's compute thread and whichever thread serves its requests
//!    (`crossbeam-channel` in the original sketch), and a mutex whose
//!    `lock()` returns a guard directly instead of a poisoning `Result`
//!    (`parking_lot`). Both are small enough to implement over `std`
//!    primitives, so this crate provides [`channel`] and [`sync`] as
//!    drop-in stand-ins and every other crate depends on these instead of
//!    the network-fetched originals.
//! 2. **A home for cross-crate helpers with no better owner.** Utilities
//!    that would otherwise force a dependency edge between sibling crates
//!    live here: [`hash`], the cheap hasher of the page-keyed tables, and
//!    the [`pool`] of parked threads a DSM run borrows its processors from.
//!
//! Nothing in this crate is specific to distributed shared memory; it is
//! deliberately boring so that the interesting code stays in `pagedmem`,
//! `msgnet`, `treadmarks` and `ctrt`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod hash;
pub mod pool;
pub mod sync;
