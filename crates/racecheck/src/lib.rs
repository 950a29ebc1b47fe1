//! # racecheck — on-the-fly data-race detection for the DSM runtime
//!
//! The runtime already maintains the three ingredients a happened-before
//! race detector for a coherent distributed memory needs: *vector
//! timestamps* order intervals, *twins* expose a processor's unflushed
//! local writes, and *word-granularity diffs* carry the exact write set of
//! every remote interval. This crate packages the pieces that are
//! independent of the protocol — the race predicate's data model, the
//! word-range overlap computation, and a deterministic report log — so the
//! `treadmarks` apply paths can hook them in without a dependency cycle.
//!
//! A race is reported when two intervals whose creating vector timestamps
//! are **concurrent** (neither covers the other, see
//! `treadmarks::Vt::concurrent`) wrote overlapping words of the same page.
//! For programs that obey the release-consistency contract this never
//! happens: the multiple-writer protocol only admits concurrent writers of
//! a page when their word sets are disjoint, so a non-empty overlap is
//! exactly a data race in the LRC sense — two writes not ordered by any
//! release/acquire chain.
//!
//! Detection runs at the points where a processor applies remote
//! modifications (barrier `SyncDiffs`, lock-grant piggybacks, fault
//! fetches and push installs), so the *detection window* is
//! the un-garbage-collected diff history plus the processor's own
//! unflushed twins. Races whose older half diff-cache GC has dropped,
//! to be served only inside a full-page base, cannot be pinpointed any
//! more; they are counted (`races_window_trimmed` in the stats) rather
//! than silently dropped.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use dsm_core::sync::Mutex;
use pagedmem::PageId;

/// Selects whether, and how, the runtime checks applied diffs for races.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RaceDetect {
    /// No detection: the apply paths take no extra locks and ship no extra
    /// bytes (creating timestamps are not recorded on diffs).
    #[default]
    Off,
    /// Detect and collect: reports accumulate in a [`RaceLog`] and are
    /// returned (sorted, deduplicated) when the run finishes.
    Collect,
    /// Detect and fail fast: the first report panics the detecting
    /// processor, poisoning the run — for harnesses that must not keep
    /// computing on racy data.
    FailFast,
}

/// The kind of synchronization point at which a race was detected — the
/// *bracketing sync point* of the report: the apply operation that brought
/// the two concurrent write sets onto one processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SyncKind {
    /// Applying `SyncDiffs` at a barrier departure.
    Barrier,
    /// Applying a lock grant's piggybacked diffs.
    LockGrant,
    /// Installing pushed data from a one-sided exchange.
    Push,
    /// Applying diffs fetched on an access fault.
    Fetch,
}

impl SyncKind {
    /// Short lower-case name for display.
    fn name(self) -> &'static str {
        match self {
            SyncKind::Barrier => "barrier",
            SyncKind::LockGrant => "lock-grant",
            SyncKind::Push => "push",
            SyncKind::Fetch => "fetch",
        }
    }
}

/// One side of a racing pair: the interval of a processor whose write set
/// participates in the overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RaceAccess {
    /// The writing processor.
    pub proc: usize,
    /// The processor's interval in which the write occurred. The interval
    /// that was still open (unflushed) when the race was detected appears
    /// under the number it will flush as.
    pub interval: u32,
}

impl fmt::Display for RaceAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}@i{}", self.proc, self.interval)
    }
}

/// A detected data race: two concurrent intervals wrote overlapping words
/// of one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// The page both intervals wrote.
    pub page: PageId,
    /// The overlapping byte ranges within the page, as half-open
    /// `(start, end)` offsets, sorted and non-adjacent. Word granular
    /// (multiples of 4), since diffs record whole words.
    pub words: Vec<(u32, u32)>,
    /// The side with the lexicographically smaller `(proc, interval)` —
    /// canonical ordering, *not* a temporal claim: the two sides are
    /// concurrent by construction.
    pub first: RaceAccess,
    /// The side with the larger `(proc, interval)`.
    pub second: RaceAccess,
    /// The processor on which the detector observed the overlap.
    pub detected_by: usize,
    /// The synchronization point whose apply surfaced the race.
    pub sync: SyncKind,
}

impl RaceReport {
    /// Builds a report with the access pair put in canonical order.
    pub fn new(
        page: PageId,
        words: Vec<(u32, u32)>,
        a: RaceAccess,
        b: RaceAccess,
        detected_by: usize,
        sync: SyncKind,
    ) -> RaceReport {
        let (first, second) = if a <= b { (a, b) } else { (b, a) };
        RaceReport { page, words, first, second, detected_by, sync }
    }

    /// The key the log sorts and deduplicates by: page, then the canonical
    /// interval pair, then the word ranges. The detecting processor and
    /// sync kind are tie-breakers only, so symmetric detections (both
    /// processors observing the same pair) collapse to one report.
    fn key(&self) -> (PageId, RaceAccess, RaceAccess, &[(u32, u32)]) {
        (self.page, self.first, self.second, &self.words)
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "race on page {}: {} and {} wrote overlapping words [",
            self.page, self.first, self.second
        )?;
        for (i, (lo, hi)) in self.words.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{lo}..{hi}")?;
        }
        write!(f, "] (detected by p{} at {})", self.detected_by, self.sync.name())
    }
}

/// Intersects two sets of half-open byte ranges.
///
/// Both inputs must be sorted by start offset with no overlaps among
/// themselves (the shape `Diff::modified_ranges` produces); the result is
/// sorted, non-overlapping, and empty iff the sets are disjoint.
///
/// ```
/// let a = [(0u32, 8u32), (16, 32)];
/// let b = [(4u32, 20u32)];
/// assert_eq!(racecheck::overlap(&a, &b), vec![(4, 8), (16, 20)]);
/// assert!(racecheck::overlap(&a, &[(8, 16)]).is_empty());
/// ```
pub fn overlap(a: &[(u32, u32)], b: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            out.push((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// A shared, thread-safe collection of race reports for one run.
///
/// Nodes record into the log from inside their apply paths; when the run
/// finishes, [`RaceLog::drain_sorted`] returns the reports in a canonical
/// order that is byte-stable across thread schedules.
#[derive(Debug)]
pub struct RaceLog {
    fail_fast: bool,
    reports: Mutex<Vec<RaceReport>>,
}

impl RaceLog {
    /// Creates an empty log; `fail_fast` makes [`RaceLog::record`] panic.
    pub fn new(fail_fast: bool) -> RaceLog {
        RaceLog { fail_fast, reports: Mutex::new(Vec::new()) }
    }

    /// Appends a report.
    ///
    /// # Panics
    ///
    /// Panics with the report's display form if the log was created in
    /// fail-fast mode.
    pub fn record(&self, report: RaceReport) {
        if self.fail_fast {
            panic!("data race detected: {report}");
        }
        self.reports.lock().push(report);
    }

    /// Removes and returns all reports in canonical order.
    ///
    /// Reports are sorted by `(page, interval pair, word ranges)` and a
    /// race observed symmetrically by both involved processors is collapsed
    /// to a single report (the one with the smaller detecting processor,
    /// then sync kind — itself a deterministic choice). The result is
    /// therefore identical across runs regardless of thread scheduling,
    /// given the runtime's deterministic virtual-time execution.
    pub fn drain_sorted(&self) -> Vec<RaceReport> {
        let mut reports = std::mem::take(&mut *self.reports.lock());
        reports.sort_by(|x, y| {
            x.key()
                .cmp(&y.key())
                .then_with(|| (x.detected_by, x.sync).cmp(&(y.detected_by, y.sync)))
        });
        reports.dedup_by(|next, kept| next.key() == kept.key());
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(proc: usize, interval: u32) -> RaceAccess {
        RaceAccess { proc, interval }
    }

    #[test]
    fn overlap_handles_disjoint_nested_and_partial() {
        assert!(overlap(&[(0, 4)], &[(4, 8)]).is_empty());
        assert_eq!(overlap(&[(0, 100)], &[(20, 24)]), vec![(20, 24)]);
        assert_eq!(overlap(&[(0, 8), (12, 20)], &[(4, 16)]), vec![(4, 8), (12, 16)]);
        assert!(overlap(&[], &[(0, 4)]).is_empty());
    }

    #[test]
    fn report_new_canonicalizes_pair_order() {
        let r =
            RaceReport::new(PageId(3), vec![(0, 4)], acc(2, 5), acc(1, 9), 2, SyncKind::Barrier);
        assert_eq!(r.first, acc(1, 9));
        assert_eq!(r.second, acc(2, 5));
    }

    #[test]
    fn drain_sorted_orders_and_dedupes_symmetric_detections() {
        let log = RaceLog::new(false);
        // The same race seen from both sides, plus a distinct one on a
        // later page, recorded in scrambled order.
        log.record(RaceReport::new(
            PageId(7),
            vec![(0, 4)],
            acc(0, 1),
            acc(1, 1),
            1,
            SyncKind::Fetch,
        ));
        log.record(RaceReport::new(
            PageId(2),
            vec![(8, 16)],
            acc(1, 3),
            acc(2, 2),
            2,
            SyncKind::Barrier,
        ));
        log.record(RaceReport::new(
            PageId(2),
            vec![(8, 16)],
            acc(2, 2),
            acc(1, 3),
            1,
            SyncKind::Barrier,
        ));
        let drained = log.drain_sorted();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].page, PageId(2));
        assert_eq!(drained[0].detected_by, 1, "smaller detector wins the dedup");
        assert_eq!(drained[1].page, PageId(7));
        assert!(log.drain_sorted().is_empty(), "drain empties the log");
    }

    #[test]
    #[should_panic(expected = "data race detected")]
    fn fail_fast_panics_on_record() {
        let log = RaceLog::new(true);
        log.record(RaceReport::new(
            PageId(0),
            vec![(0, 4)],
            acc(0, 1),
            acc(1, 1),
            0,
            SyncKind::Push,
        ));
    }

    #[test]
    fn display_names_page_and_procs() {
        let r =
            RaceReport::new(PageId(5), vec![(4, 12)], acc(0, 2), acc(3, 1), 0, SyncKind::LockGrant);
        let s = r.to_string();
        assert!(s.contains("page 5"), "{s}");
        assert!(s.contains("p0@i2"), "{s}");
        assert!(s.contains("p3@i1"), "{s}");
        assert!(s.contains("4..12"), "{s}");
        assert!(s.contains("lock-grant"), "{s}");
    }

    #[test]
    fn race_detect_enabled() {
        assert_eq!(RaceDetect::default(), RaceDetect::Off);
    }
}
