//! Differential testing of the analyzer against the run-time race detector.
//!
//! The regular-section analyzer and the on-the-fly race detector are two
//! independent implementations of one judgement — *"is this boundary's
//! synchronization necessary?"* — and this module tests them against each
//! other:
//!
//! * **Accept side**: every program the analyzer accepts (classifies
//!   without a [`Refusal`]) must execute report-free under
//!   `RaceDetect::Collect` — an optimized schedule that races would mean
//!   the compiler dropped a happens-before edge it needed.
//! * **Refuse side**: for every refusal class the harness generates a
//!   program the analyzer refuses ([`RefusalClass::program`]) *and* the
//!   unsynchronized execution the refused optimization would have licensed
//!   ([`RefusalClass::run_racy`]). The detector must report at least one
//!   race naming a page inside the racy array and a distinct processor
//!   pair — proving the refusal guarded against a dynamically real race,
//!   not an analysis artifact.
//!
//! The accept side lives with the applications (`dsm-apps`' differential
//! test runs every variant of every kernel under the detector); the
//! refuse side is generated here because it needs the IR vocabulary.

use pagedmem::AddrRange;
use treadmarks::{Dsm, DsmConfig, Process, RaceDetect, RaceReport};

use crate::analysis::{BoundaryClass, Refusal};
use crate::ir::{Access, ArrayDecl, ColSpan, Node, Phase, Program, SectionAccess};
use crate::plan::{compile, CompiledKernel};

/// The refusal classes the harness generates adversarial programs for.
///
/// Each class pairs a [`Program`] the analyzer must refuse (with the
/// matching [`Refusal`]) with a racy hand-written execution of the same
/// access pattern *without* the barrier the refusal preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalClass {
    /// Every processor writes the same span: the producer phase's output
    /// is order-dependent, refused as [`Refusal::OverlappingWrites`].
    OverlappingWrites,
    /// A producer write through [`ColSpan::Unknown`] (a non-affine
    /// subscript), refused as [`Refusal::NonAffine`]. The racy execution
    /// realizes the hidden subscript as a write into the neighbour's
    /// block.
    NonAffine,
    /// A cross-block ([`ColSpan::All`]) read of every block with no
    /// intervening barrier, refused as
    /// [`Refusal::NonNeighbourDependence`]. The racy execution runs the
    /// reduction the read stands for without the barrier, racing on the
    /// shared accumulator.
    CrossBlockNoBarrier,
    /// Unguarded writes feeding a lock-guarded reader, refused as
    /// [`Refusal::OutsideAcquireChain`]: the acquire chain orders only
    /// writes made inside critical sections on the same lock, so the
    /// claimed synchronization cannot deliver the producer's notices. The
    /// racy execution takes the lock and reads while the other processors'
    /// raw scatter is still in flight.
    LockWithoutAcquire,
}

/// The lock the [`RefusalClass::LockWithoutAcquire`] program claims (and
/// its racy execution actually takes) as the consumer's synchronization.
const GATHER_LOCK: treadmarks::LockId = 9;

impl RefusalClass {
    /// Every class, in a stable order.
    pub const ALL: [RefusalClass; 4] = [
        RefusalClass::OverlappingWrites,
        RefusalClass::NonAffine,
        RefusalClass::CrossBlockNoBarrier,
        RefusalClass::LockWithoutAcquire,
    ];

    /// Stable lowercase name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            RefusalClass::OverlappingWrites => "overlapping-writes",
            RefusalClass::NonAffine => "non-affine",
            RefusalClass::CrossBlockNoBarrier => "cross-block-no-barrier",
            RefusalClass::LockWithoutAcquire => "lock-without-acquire",
        }
    }

    /// The [`Refusal`] the analyzer must classify the generated program's
    /// boundary with.
    pub fn expected_refusal(self) -> Refusal {
        match self {
            RefusalClass::OverlappingWrites => Refusal::OverlappingWrites,
            RefusalClass::NonAffine => Refusal::NonAffine,
            RefusalClass::CrossBlockNoBarrier => Refusal::NonNeighbourDependence,
            RefusalClass::LockWithoutAcquire => Refusal::OutsideAcquireChain,
        }
    }

    /// A two-phase program over `decl` whose single boundary the analyzer
    /// must refuse with [`expected_refusal`](Self::expected_refusal).
    pub fn program(self, decl: ArrayDecl) -> Program {
        let (produce, consume) = match self {
            // Every processor writes the whole array, then reads back its
            // own block: the writes overlap pairwise.
            RefusalClass::OverlappingWrites => (
                Phase::new("scatter", vec![SectionAccess::new(0, ColSpan::All, Access::Write)]),
                Phase::new("gather", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::Read)]),
            ),
            // The producer's subscript is not a regular section: the
            // write's extent is unknowable.
            RefusalClass::NonAffine => (
                Phase::new("scatter", vec![SectionAccess::new(0, ColSpan::Unknown, Access::Write)]),
                Phase::new("gather", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::Read)]),
            ),
            // Block-local writes feeding an `All`-span read (a reduction):
            // every processor depends on every other.
            RefusalClass::CrossBlockNoBarrier => (
                Phase::new("update", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::Write)]),
                Phase::new("reduce", vec![SectionAccess::new(0, ColSpan::All, Access::Read)]),
            ),
            // Block-local writes made *outside* any critical section,
            // consumed by a phase that claims a lock as its only
            // synchronization: the acquire chain has nothing to clear. The
            // gather is a read-modify-write (an in-place accumulation, the
            // shape of IS's histogram merge) so the refused pattern is a
            // write/write race the detector's diff evidence can witness.
            RefusalClass::LockWithoutAcquire => (
                Phase::new(
                    "scatter",
                    vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::Write)],
                ),
                Phase::guarded(
                    "gather",
                    vec![SectionAccess::new(0, ColSpan::All, Access::ReadWrite)],
                    GATHER_LOCK,
                ),
            ),
        };
        Program { arrays: vec![decl], nodes: vec![Node::Phase(produce), Node::Phase(consume)] }
    }

    /// Compiles the generated program for `nprocs` processors and checks
    /// the refusal. Returns the kernel for further inspection.
    ///
    /// # Panics
    ///
    /// Panics if no boundary carries the expected [`Refusal`].
    pub fn compile_refused(self, nprocs: usize) -> CompiledKernel {
        let decl = ArrayDecl {
            name: "a",
            base: pagedmem::Addr::ZERO,
            rows: 64,
            cols: 2 * nprocs,
            elem_bytes: 8,
        };
        let kernel = compile(&self.program(decl), nprocs);
        let expected = self.expected_refusal();
        let refused = kernel.boundaries.iter().any(|b| {
            matches!(b.class, BoundaryClass::FullBarrier { refusal: Some(r), .. } if r == expected)
        });
        assert!(
            refused,
            "{}: expected a boundary refused as {:?}, got {:?}",
            self.name(),
            expected,
            kernel.boundaries
        );
        kernel
    }

    /// Runs the unsynchronized execution the refused optimization would
    /// have licensed, under `RaceDetect::Collect`, and returns the
    /// detector's verdict.
    pub fn run_racy(self, nprocs: usize) -> RacyOutcome {
        assert!(nprocs >= 2, "a race needs two processors");
        let config = DsmConfig::new(nprocs).with_race_detect(RaceDetect::Collect);
        let racy_range = std::sync::Arc::new(std::sync::Mutex::new(None));
        let seen = racy_range.clone();
        let run = Dsm::run(config, move |p| {
            let (sum, range) = match self {
                RefusalClass::OverlappingWrites => racy_overlapping_writes(p),
                RefusalClass::NonAffine => racy_non_affine(p),
                RefusalClass::CrossBlockNoBarrier => racy_cross_block(p),
                RefusalClass::LockWithoutAcquire => racy_lock_without_acquire(p),
            };
            *seen.lock().unwrap() = Some(range);
            sum
        });
        let racy_range =
            racy_range.lock().unwrap().take().expect("the racy body records its range");
        RacyOutcome { class: self, nprocs, races: run.races, racy_range }
    }
}

/// The detector's verdict on one racy run: the reports plus the address
/// range the generated race lives in.
#[derive(Debug, Clone)]
pub struct RacyOutcome {
    /// The class the run exercised.
    pub class: RefusalClass,
    /// The cluster size.
    pub nprocs: usize,
    /// The deterministic, sorted reports from [`treadmarks::DsmRun`].
    pub races: Vec<RaceReport>,
    /// The address range containing the generated race.
    pub racy_range: AddrRange,
}

impl RacyOutcome {
    /// The reports whose page lies inside the racy range.
    fn reports_in_range(&self) -> Vec<&RaceReport> {
        self.races.iter().filter(|r| self.racy_range.pages().any(|page| page == r.page)).collect()
    }

    /// Asserts the differential property for the refuse side: at least one
    /// report names a page of the racy array and a distinct processor
    /// pair.
    ///
    /// # Panics
    ///
    /// Panics (with the class name and the full report list) if no such
    /// report exists.
    pub fn assert_detected(&self) {
        let named = self.reports_in_range();
        assert!(
            named.iter().any(|r| r.first.proc != r.second.proc),
            "{} @ {} procs: no report names the racy range {:?} with a distinct \
             processor pair; reports: {:?}",
            self.class.name(),
            self.nprocs,
            self.racy_range,
            self.races
        );
    }
}

/// Every processor writes the same leading words of the array — the
/// overlapping writes the analyzer refused to order — then a barrier and a
/// read-back. The concurrent epoch-0 diffs collide word-for-word.
fn racy_overlapping_writes(p: &mut Process) -> (u64, AddrRange) {
    let me = p.proc_id() as u64;
    let a = p.alloc_array::<u64>(64 * 2 * p.nprocs());
    for i in 0..16 {
        p.set(&a, i, 1 + me + i as u64);
    }
    let range = a.range_of(0, 16);
    p.barrier();
    let sum = (0..16).map(|i| p.get(&a, i)).sum();
    p.barrier();
    (sum, range)
}

/// The non-affine subscript realized: each processor writes its own block
/// plus (through the subscript the analyzer could not see) the first word
/// of its right neighbour's block, which the neighbour is writing too.
fn racy_non_affine(p: &mut Process) -> (u64, AddrRange) {
    let me = p.proc_id();
    let nprocs = p.nprocs();
    let rows = 64;
    let a = p.alloc_array::<u64>(rows * 2 * nprocs);
    let own = crate::ir::col_block(2 * nprocs, nprocs, me);
    for col in own.clone() {
        p.set(&a, col * rows, 1 + me as u64);
    }
    // The hidden out-of-block write: first element of the right
    // neighbour's block (with wraparound), a word the neighbour's own
    // sweep also writes.
    let right = crate::ir::col_block(2 * nprocs, nprocs, (me + 1) % nprocs);
    p.set(&a, right.start * rows, 100 + me as u64);
    let range = a.full_range();
    p.barrier();
    let sum = (0..2 * nprocs).map(|col| p.get(&a, col * rows)).sum();
    p.barrier();
    (sum, range)
}

/// The reduction run without the barrier the analyzer kept: block-local
/// updates, then every processor folds what it can see into one shared
/// accumulator word with no synchronization — concurrent read-modify-writes
/// of the same word.
fn racy_cross_block(p: &mut Process) -> (u64, AddrRange) {
    let me = p.proc_id();
    let nprocs = p.nprocs();
    let rows = 64;
    let a = p.alloc_array::<u64>(rows * 2 * nprocs);
    let acc = p.alloc_array::<u64>(8);
    let own = crate::ir::col_block(2 * nprocs, nprocs, me);
    for col in own {
        p.set(&a, col * rows, 1 + me as u64);
    }
    // No barrier: the cross-block read sees stale neighbour blocks, and
    // the accumulator update is an unsynchronized read-modify-write every
    // processor performs on the same word.
    let partial: u64 = (0..2 * nprocs).map(|col| p.get(&a, col * rows)).sum();
    let old = p.get(&acc, 0);
    p.set(&acc, 0, old + partial);
    let range = acc.range_of(0, 1);
    p.barrier();
    let sum = p.get(&acc, 0);
    p.barrier();
    (sum, range)
}

/// The lock taken without the ordering it claims: every processor scatters
/// into its own block *outside* any critical section, and processor 0
/// acquires the lock and accumulates into the whole array under it. The
/// grant merges no prior holder's timestamp (there is none), so the guarded
/// read-modify-writes are concurrent with every other processor's scatter
/// of the same words — a write/write race the diffs witness at the barrier.
/// Only one processor acquires, keeping the report set independent of
/// grant arrival order: the race is the scatter/gather pair, not a
/// holder-order artifact.
fn racy_lock_without_acquire(p: &mut Process) -> (u64, AddrRange) {
    let me = p.proc_id();
    let nprocs = p.nprocs();
    let rows = 64;
    let a = p.alloc_array::<u64>(rows * 2 * nprocs);
    let own = crate::ir::col_block(2 * nprocs, nprocs, me);
    for col in own {
        p.set(&a, col * rows, 1 + me as u64);
    }
    let sum = if me == 0 {
        p.lock_acquire(GATHER_LOCK);
        let mut s = 0;
        for col in 0..2 * nprocs {
            let v = p.get(&a, col * rows);
            p.set(&a, col * rows, v + 100);
            s += v;
        }
        p.lock_release(GATHER_LOCK);
        s
    } else {
        0
    };
    let range = a.full_range();
    p.barrier();
    // The post-barrier readback is what forces the lazy diffs to travel:
    // applying the concurrent scatter and gather diffs of the same words
    // is where the detector sees the pair.
    let readback: u64 = (0..2 * nprocs).map(|col| p.get(&a, col * rows)).sum();
    p.barrier();
    (sum ^ readback, range)
}
