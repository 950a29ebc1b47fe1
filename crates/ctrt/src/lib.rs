//! # ctrt — the augmented compile-time/run-time interface
//!
//! This crate is the paper's central contribution as an API: the entry
//! points through which compile-time analysis talks to the TreadMarks
//! run-time system (Figure 4 of the paper), plus the reduction:
//!
//! * [`validate`] — *"I am about to access these sections"*: misses are
//!   aggregated into one request message per producer and written pages are
//!   twinned/enabled in batch, instead of one fault + one message pair per
//!   page;
//! * [`validate_w_sync`] — *"... and a synchronization operation happens
//!   here anyway"*: the fetch is merged with the lock acquire or barrier,
//!   so consistency information and data travel on the same messages;
//! * [`push_phase`] — *"this phase is fully analyzable"*: producers send
//!   data point-to-point to their consumers ([`Push`]), replacing the
//!   barrier, the invalidations and the fetches entirely;
//! * [`reduce`] — *"these words are only ever accumulated"*: every
//!   processor's private partial is summed up the barrier tree and each
//!   processor receives the totals of the words it reads, with no lock,
//!   twin or diff.
//!
//! The split-phase call, [`validate_w_sync_issue`], returns the runtime's
//! own receipt, a [`treadmarks::PendingSync`], which
//! [`validate_w_sync_complete`] completes.
//!
//! Accesses are described as [`RegularSection`]s (lowered `[lo:hi:stride]`
//! descriptors) tagged with an [`Access`] kind; the `WRITE_ALL` variants
//! additionally let the runtime skip twin creation and old-contents
//! fetches. The legality contract of each call — in particular when
//! `Validate_w_sync` and `Push` may replace the plain synchronization — is
//! written out in `DESIGN.md`.
//!
//! ```
//! use ctrt::{validate_w_sync, Access, RegularSection, SyncOp};
//! use sp2model::CostModel;
//! use treadmarks::{Dsm, DsmConfig};
//!
//! // Two processors; processor 0 produces a page, processor 1 consumes it
//! // with the fetch merged into the barrier.
//! let config = DsmConfig::new(2).with_cost_model(CostModel::free());
//! let run = Dsm::run(config, |p| {
//!     let a = p.alloc_array::<u64>(512);
//!     if p.proc_id() == 0 {
//!         for i in 0..512 {
//!             p.set(&a, i, i as u64);
//!         }
//!     }
//!     let read = RegularSection::array(&a, 0..512, Access::Read);
//!     validate_w_sync(p, SyncOp::Barrier, &[read]);
//!     p.get(&a, 100)
//! });
//! assert_eq!(run.results, vec![100, 100]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
mod section;

pub use api::{
    neighbor_sync, push_phase, reduce, release, validate, validate_w_sync,
    validate_w_sync_complete, validate_w_sync_issue, Push, SectionGrant,
};
pub use section::{Access, ReduceOp, RegularSection, SyncOp};
// Race detection rides the same interface: every apply point the calls
// above funnel into is a detection point, reports come back on
// `DsmRun::races`, and the mode is selected by `DsmConfig::race_detect`
// (collectable or fail-fast).
pub use treadmarks::{RaceAccess, RaceDetect, RaceReport, SyncKind};
