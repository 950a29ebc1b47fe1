//! # pagedmem — the paged shared-address-space substrate
//!
//! TreadMarks implements shared memory on top of the hardware page-protection
//! mechanism: pages are 4 KiB, a write-protected page is *twinned* on the
//! first write, and the modifications are later encoded as a *diff* (a
//! word-granularity run-length encoding of the changes between the twin and
//! the current contents).
//!
//! This crate provides that substrate for the simulated cluster:
//!
//! * [`Page`], [`PageId`], [`Protection`] — fixed-size pages with protection
//!   state,
//! * [`PageTable`] — one per node, mapping page ids to frames with optional
//!   twins,
//! * [`Diff`] — creation, application and merging of word-granularity diffs,
//! * [`Addr`], [`AddrRange`] — byte addressing within the shared space, and
//! * [`SharedAlloc`] — the deterministic bump allocator used by every node to
//!   lay out shared arrays at identical addresses.
//!
//! ```
//! use pagedmem::{Diff, PAGE_SIZE};
//!
//! let twin = vec![0u8; PAGE_SIZE];
//! let mut page = twin.clone();
//! page[100..104].copy_from_slice(&[1, 2, 3, 4]);
//! let diff = Diff::create(&twin, &page);
//! let mut other = vec![0u8; PAGE_SIZE];
//! diff.apply(&mut other);
//! assert_eq!(other, page);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod alloc;
mod diff;
mod error;
mod page;
mod table;

pub use addr::{Addr, AddrRange};
pub use alloc::SharedAlloc;
pub use diff::Diff;
pub use error::MemError;
pub use page::{Page, PageId, Protection, PAGE_SIZE};
pub use table::{AccessFault, AccessOutcome, PageFrame, PageTable};
