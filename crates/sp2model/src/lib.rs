//! # sp2model — simulation substrate for the ctrt-dsm workspace
//!
//! The ASPLOS '96 evaluation ran on an 8-node IBM SP/2 with user-space MPL
//! communication. This crate replaces that testbed with a deterministic
//! *virtual time* model:
//!
//! * [`VirtualTime`] / [`VirtualClock`] — per-node Lamport-style clocks that
//!   advance by modelled costs and merge on message receipt,
//! * [`CostModel`] — the measured SP/2 constants from Section 5 of the paper
//!   (365 µs minimum round-trip, 427 µs lock acquire, 893 µs 8-node barrier,
//!   page-fault and `mprotect` costs that grow with the number of pages in
//!   use),
//! * [`stats`] — protocol event counters (page faults, messages, bytes,
//!   twins, diffs, …) used to regenerate Table 2 and the figures.
//!
//! Protocol *events* are produced by the real DSM implementation in the other
//! crates; this crate only assigns costs to them, which is what makes the
//! reproduction independent of host wall-clock time.
//!
//! ```
//! use sp2model::{CostModel, VirtualClock};
//!
//! let model = CostModel::sp2();
//! let mut clock = VirtualClock::new();
//! clock.advance(model.message_cost(4096, true));
//! assert!(clock.now().as_micros() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod cost;
pub mod stats;
mod time;

pub use clock::VirtualClock;
pub use cost::CostModel;
pub use stats::{ClusterStats, ReactorSnapshot, ReactorStats, SharedStats, StatsSnapshot};
pub use time::VirtualTime;
