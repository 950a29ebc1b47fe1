//! Write notices and the per-processor notice log.

use std::collections::VecDeque;
use std::sync::Arc;

use pagedmem::PageId;

use crate::types::{Interval, ProcId, Vt};

/// The write notices of one interval: "processor `proc` modified `pages`
/// during `interval`".
///
/// A record is built once, by the flush that ends the interval, and is the
/// only form a write notice takes: the writer's log, every message that
/// carries it and every log it lands in share its page list (a clone is an
/// `Arc` bump). Receiving one invalidates the local copies of its pages
/// until the interval's diffs have been fetched and applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoticeRecord {
    /// The processor that performed the modifications.
    pub proc: ProcId,
    /// The interval in which they happened.
    pub interval: Interval,
    /// The modified pages, ascending and distinct: fixed at the flush.
    pub pages: Arc<[PageId]>,
}

impl NoticeRecord {
    /// Wire bytes of one page's notice: the page, the processor and the
    /// interval, as the system was measured.
    pub const WIRE_BYTES_PER_PAGE: usize = 12;

    /// Approximate wire size: one notice per page.
    pub fn wire_bytes(&self) -> usize {
        self.pages.len() * Self::WIRE_BYTES_PER_PAGE
    }
}

/// `base ⊔ {(r.proc, r.interval)}`: the timestamp a message's own notice
/// records determine over a `base` its receiver holds.
///
/// This is how a barrier arrival, a barrier departure and a lock grant
/// deliver their sender's timestamp without shipping it.
/// It is exact because of one invariant of every notice log: whenever
/// `vt[p]` is above `gc_horizon[p]`, the log holds the record
/// `(p, vt[p])` with at least one page. A flush advances `vt` only when it
/// flushed a page, every path that raises a component delivers that record
/// in the same message, and a trim drops only records at or below every
/// base. So every component in which the sender is ahead of the base
/// travels as a record, and no record is ahead of the sender.
pub(crate) fn vt_through(base: &Vt, records: &[NoticeRecord]) -> Vt {
    let mut vt = base.clone();
    for record in records {
        vt.advance(record.proc, record.interval);
    }
    vt
}

/// Whether a receiver holding `base` rebuilds from `records` exactly what
/// merging the `sender`'s whole timestamp would give it — the check every
/// sender of a timestamp-free message makes in debug builds.
pub(crate) fn notices_determine(base: &Vt, records: &[NoticeRecord], sender: &Vt) -> bool {
    let mut merged = base.clone();
    merged.merge(sender);
    vt_through(base, records) == merged
}

/// Everything a processor knows about modifications in the system: for each
/// processor, the [`NoticeRecord`] of each of its intervals.
///
/// The log is consulted to answer "which records does a processor with
/// vector timestamp `vt` still need?" — the question asked at every lock
/// grant and barrier hop — and trimmed from the old end at every barrier.
/// Records arrive almost always in interval order, so each processor's
/// records are a sorted queue: append at the back, drain at the front, and
/// the storage a trim frees is what the next barrier's records reuse.
#[derive(Debug, Clone, Default)]
pub struct NoticeLog {
    /// `per_proc[p]`: processor `p`'s records, ascending by interval, one
    /// per interval.
    per_proc: Vec<VecDeque<NoticeRecord>>,
}

impl NoticeLog {
    /// An empty log for `nprocs` processors.
    pub fn new(nprocs: usize) -> NoticeLog {
        NoticeLog { per_proc: vec![VecDeque::new(); nprocs] }
    }

    /// Records `record`. A second record of the same `(proc, interval)` is
    /// ignored (the first recording wins); returns whether it was new.
    pub fn record(&mut self, record: NoticeRecord) -> bool {
        let records = &mut self.per_proc[record.proc];
        if records.back().is_none_or(|latest| latest.interval < record.interval) {
            records.push_back(record);
            return true;
        }
        // The rare out-of-order record (an interval learned along a lock
        // chain after a later one of the same processor).
        match records.binary_search_by_key(&record.interval, |r| r.interval) {
            Ok(_) => false,
            Err(at) => {
                records.insert(at, record);
                true
            }
        }
    }

    /// Whether the log already contains `(proc, interval)`.
    pub fn contains(&self, proc: ProcId, interval: Interval) -> bool {
        self.per_proc[proc].binary_search_by_key(&interval, |r| r.interval).is_ok()
    }

    /// The records with `interval > vt[proc]` — exactly what a processor
    /// with timestamp `vt` has not yet seen — in ascending
    /// `(proc, interval)` order. Cloning one to send it is an `Arc` bump.
    pub fn records_after<'a>(&'a self, vt: &'a Vt) -> impl Iterator<Item = &'a NoticeRecord> + 'a {
        self.per_proc
            .iter()
            .enumerate()
            // Most processors have nothing new for most timestamps, and one
            // look at a queue's newest record says so.
            .filter(|&(proc, records)| {
                records.back().is_some_and(|latest| latest.interval > vt.get(proc))
            })
            .flat_map(|(proc, records)| {
                let first = records.partition_point(|r| r.interval <= vt.get(proc));
                records.range(first..)
            })
    }

    /// [`records_after`](Self::records_after), cloned into the list a
    /// message carries: an `Arc` bump a record, one allocation.
    pub fn clone_after(&self, vt: &Vt) -> Vec<NoticeRecord> {
        let mut out = Vec::with_capacity(self.records_after(vt).count());
        out.extend(self.records_after(vt).cloned());
        out
    }

    /// Total number of `(proc, interval)` records.
    pub fn interval_count(&self) -> usize {
        self.per_proc.iter().map(VecDeque::len).sum()
    }

    /// Drops each processor's records covered by `horizon`'s component for
    /// it, handing each to `dropped` as it goes (one visit a record). Returns
    /// the number of records removed.
    ///
    /// Safe once `horizon` is a garbage-collection horizon (every processor
    /// has incorporated the covered intervals into its mapped pages): any
    /// future [`records_after`](Self::records_after) query carries a
    /// timestamp covering the horizon, so trimmed records could never be
    /// reported again.
    pub fn trim_covered(&mut self, horizon: &Vt, mut dropped: impl FnMut(&NoticeRecord)) -> usize {
        let mut removed = 0;
        for (proc, records) in self.per_proc.iter_mut().enumerate() {
            let covered = records.partition_point(|r| r.interval <= horizon.get(proc));
            if covered > 0 {
                records.drain(..covered).for_each(|record| dropped(&record));
                removed += covered;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(proc: ProcId, interval: Interval, pages: &[usize]) -> NoticeRecord {
        NoticeRecord { proc, interval, pages: pages.iter().copied().map(PageId).collect() }
    }

    /// `(proc, interval)` of each record `log` holds above `vt`.
    fn keys(log: &NoticeLog, vt: &Vt) -> Vec<(ProcId, Interval)> {
        log.records_after(vt).map(|r| (r.proc, r.interval)).collect()
    }

    #[test]
    fn record_and_query_notices() {
        let mut log = NoticeLog::new(2);
        assert!(log.record(rec(0, 1, &[5, 6])));
        assert!(!log.record(rec(0, 1, &[9])), "duplicate records are ignored");
        log.record(rec(1, 1, &[7]));
        log.record(rec(0, 2, &[5]));

        assert!(log.contains(0, 1));
        assert!(!log.contains(1, 2));
        assert_eq!(log.interval_count(), 3);
        assert_eq!(log.records_after(&Vt::new(2)).next(), Some(&rec(0, 1, &[5, 6])));

        // A processor that has seen everything of proc 0 up to interval 1.
        let mut vt = Vt::new(2);
        vt.advance(0, 1);
        let missing = log.clone_after(&vt);
        assert_eq!(missing, [rec(0, 2, &[5]), rec(1, 1, &[7])]);
        assert_eq!(missing.iter().map(NoticeRecord::wire_bytes).sum::<usize>(), 2 * 12);
        let held = log.records_after(&vt).next().expect("P0's second interval");
        assert!(Arc::ptr_eq(&missing[0].pages, &held.pages), "a clone shares the page list");
    }

    #[test]
    fn trim_covered_is_per_processor_and_idempotent() {
        let mut log = NoticeLog::new(2);
        log.record(rec(0, 1, &[1]));
        log.record(rec(0, 3, &[1]));
        log.record(rec(1, 1, &[2]));
        log.record(rec(1, 4, &[2]));
        let mut horizon = Vt::new(2);
        horizon.advance(0, 3);
        // Processor 1's component stays at zero: its records survive.
        let mut dropped = Vec::new();
        assert_eq!(log.trim_covered(&horizon, |r| dropped.push((r.proc, r.interval))), 2);
        assert_eq!(dropped, [(0, 1), (0, 3)], "each dropped record is handed over once");
        assert!(!log.contains(0, 1));
        assert!(!log.contains(0, 3));
        assert!(log.contains(1, 1));
        assert!(log.contains(1, 4));
        assert_eq!(log.trim_covered(&horizon, |_| {}), 0, "trimming is idempotent");
    }

    #[test]
    fn records_after_full_knowledge_is_empty() {
        let mut log = NoticeLog::new(2);
        log.record(rec(0, 1, &[1]));
        log.record(rec(1, 3, &[2]));
        let mut full = Vt::new(2);
        full.advance(0, 1);
        full.advance(1, 3);
        assert!(log.clone_after(&full).is_empty());
    }

    #[test]
    fn out_of_order_records_land_in_interval_order() {
        let mut log = NoticeLog::new(1);
        for interval in [4, 2, 9, 3] {
            assert!(log.record(rec(0, interval, &[interval as usize])));
        }
        assert!(!log.record(rec(0, 3, &[0])));
        assert_eq!(keys(&log, &Vt::new(1)), [(0, 2), (0, 3), (0, 4), (0, 9)]);
    }
}
