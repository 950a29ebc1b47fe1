//! # treadmarks — a lazy release consistency software DSM runtime
//!
//! This crate reimplements the TreadMarks run-time system the paper builds
//! on: a page-based, multiple-writer software DSM using *lazy release
//! consistency* (LRC).
//!
//! The moving parts, in the paper's vocabulary:
//!
//! * **Intervals and vector timestamps** — every processor's execution is
//!   divided into intervals by its release operations (lock releases and
//!   barrier arrivals). A vector timestamp records, per processor, the most
//!   recent interval whose modifications have been seen.
//! * **Write notices** — at an acquire (lock acquisition, barrier departure)
//!   the acquirer learns which pages were modified in intervals it has not
//!   yet seen, one [`NoticeRecord`] per interval, built by the writer's
//!   flush and shared by every log and message. Those pages are invalidated.
//! * **Twins and diffs** — a write to a write-protected page faults; the
//!   runtime saves a *twin* (copy) of the page and write-enables it. When the
//!   modifications are needed they are encoded as a *diff* (twin vs current)
//!   and shipped to the faulting processor, which applies them. Multiple
//!   concurrent writers of one page are merged by applying their diffs, which
//!   is how false sharing is tolerated.
//! * **Access detection** — every shared access goes through
//!   [`Process::get`]/[`Process::set`], which consult the page table and run
//!   the fault handler on an invalid or protected page. (The hardware
//!   mprotect/SIGSEGV path of the original system is replaced by this checked
//!   software path; see DESIGN.md for the substitution argument.)
//!
//! On top of the base protocol the crate exposes the *run-time primitives* of
//! Figure 4 of the paper — [`Process::fetch_diffs`] (`Fetch_diffs` +
//! `Apply_diffs`), [`Process::sync_phase`] (`Fetch_diffs_w_sync`: the issue,
//! the caller's overlap body and the completion in one call; a barrier
//! answers with one [`TmkMessage::SyncDiffs`] per producer),
//! [`Process::prepare_phase`] (`Create_twins` + `Write_enable`) and the
//! point-to-point [`Process::push_exchange`] — which the `ctrt` crate
//! composes into the compiler-visible `Validate` / `Validate_w_sync` /
//! `Push` interface.
//!
//! ```
//! use sp2model::CostModel;
//! use treadmarks::{Dsm, DsmConfig};
//!
//! let config = DsmConfig::new(4).with_cost_model(CostModel::sp2());
//! let run = Dsm::run(config, |p| {
//!     let array = p.alloc_array::<u64>(1024);
//!     // Every processor writes its own quarter.
//!     let chunk = 1024 / p.nprocs();
//!     let base = p.proc_id() * chunk;
//!     for i in 0..chunk {
//!         p.set(&array, base + i, (base + i) as u64);
//!     }
//!     p.barrier();
//!     // ... and reads a neighbour's quarter through the DSM protocol.
//!     let neighbour = (p.proc_id() + 1) % p.nprocs();
//!     let mut sum = 0;
//!     for i in 0..chunk {
//!         sum += p.get(&array, neighbour * chunk + i);
//!     }
//!     sum
//! });
//! assert_eq!(run.results.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod dsm;
mod message;
mod notice;
mod process;
mod run;
mod server;
mod sharedarray;
mod state;
mod types;
mod watch;

pub use config::{BarrierTopology, DsmConfig};
pub use dsm::{Dsm, DsmError, DsmRun};
pub use message::TmkMessage;
pub use msgnet::{FaultPlan, LinkRates, NetFaults, Port, RetryPolicy};
pub use notice::{NoticeLog, NoticeRecord};
pub use process::{PhasePlan, Process, SyncOp};
pub use racecheck::{RaceAccess, RaceDetect, RaceReport, SyncKind};
pub use sharedarray::{Shareable, SharedArray, SharedMatrix};
pub use sp2model::ReactorSnapshot;
pub use types::{Interval, LockId, ProcId, Vt, VtDelta};
