//! Write notices and the per-processor notice log.

use std::collections::VecDeque;

use pagedmem::PageId;

use crate::types::{Interval, ProcId, Vt};

/// A write notice: "processor `proc` modified `page` during `interval`".
///
/// Write notices are exchanged at acquires; receiving one invalidates the
/// local copy of the page until the corresponding diff has been fetched and
/// applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WriteNotice {
    /// The modified page.
    pub page: PageId,
    /// The processor that performed the modification.
    pub proc: ProcId,
    /// The interval in which the modification happened.
    pub interval: Interval,
}

impl WriteNotice {
    /// Approximate wire size in bytes.
    pub const WIRE_BYTES: usize = 12;
}

/// `base ⊔ {(n.proc, n.interval)}`: the timestamp a message's own write
/// notices determine over a `base` its receiver holds.
///
/// This is how a barrier arrival, a barrier departure, a neighbour-sync ack
/// and a lock grant deliver their sender's timestamp without shipping it.
/// It is exact because of one invariant of every notice log: whenever
/// `vt[p]` is above `gc_horizon[p]`, the log holds the record
/// `(p, vt[p])` with at least one page. A flush advances `vt` only when it
/// flushed a page, every path that raises a component delivers that record
/// in the same message, and a trim drops only records at or below every
/// base. So every component in which the sender is ahead of the base
/// travels as a notice, and no notice is ahead of the sender.
pub(crate) fn vt_through(base: &Vt, notices: &[WriteNotice]) -> Vt {
    let mut vt = base.clone();
    for n in notices {
        vt.advance(n.proc, n.interval);
    }
    vt
}

/// Whether a receiver holding `base` rebuilds from `notices` exactly what
/// merging the `sender`'s whole timestamp would give it — the check every
/// sender of a timestamp-free message makes in debug builds.
pub(crate) fn notices_determine(base: &Vt, notices: &[WriteNotice], sender: &Vt) -> bool {
    let mut merged = base.clone();
    merged.merge(sender);
    vt_through(base, notices) == merged
}

/// Everything a processor knows about modifications in the system: for each
/// processor, the pages modified in each of its intervals.
///
/// The log is consulted to answer "which notices does a processor with
/// vector timestamp `vt` still need?" — the question asked at every lock
/// grant and barrier departure — and trimmed from the old end at every
/// barrier. Records arrive almost always in interval order, so each
/// processor's records are a sorted queue: append at the back, drain at the
/// front, and the storage a trim frees is what the next barrier's records
/// reuse.
#[derive(Debug, Clone, Default)]
pub struct NoticeLog {
    /// `per_proc[p]`: `(interval, pages modified by p in it)`, ascending by
    /// interval, one record per interval.
    per_proc: Vec<VecDeque<(Interval, Vec<PageId>)>>,
}

impl NoticeLog {
    /// An empty log for `nprocs` processors.
    pub fn new(nprocs: usize) -> NoticeLog {
        NoticeLog { per_proc: vec![VecDeque::new(); nprocs] }
    }

    /// Records a batch of notices for `(proc, interval)`. Duplicate
    /// insertions are ignored (the first recording wins).
    pub fn record(&mut self, proc: ProcId, interval: Interval, pages: Vec<PageId>) -> bool {
        let records = &mut self.per_proc[proc];
        if records.back().is_none_or(|&(latest, _)| latest < interval) {
            records.push_back((interval, pages));
            return true;
        }
        // The rare out-of-order record (an interval learned along a lock
        // chain after a later one of the same processor).
        match records.binary_search_by_key(&interval, |&(i, _)| i) {
            Ok(_) => false,
            Err(at) => {
                records.insert(at, (interval, pages));
                true
            }
        }
    }

    /// Whether the log already contains `(proc, interval)`.
    pub fn contains(&self, proc: ProcId, interval: Interval) -> bool {
        self.per_proc[proc].binary_search_by_key(&interval, |&(i, _)| i).is_ok()
    }

    /// The records with `interval > vt[proc]` — exactly what a processor
    /// with timestamp `vt` has not yet seen — as `(proc, interval, pages)`
    /// in ascending `(proc, interval)` order, without copying them.
    pub fn records_after<'a>(
        &'a self,
        vt: &'a Vt,
    ) -> impl Iterator<Item = (ProcId, Interval, &'a [PageId])> + 'a {
        self.per_proc
            .iter()
            .enumerate()
            // Most processors have nothing new for most timestamps, and one
            // look at a queue's newest record says so.
            .filter(|&(proc, records)| {
                records.back().is_some_and(|&(latest, _)| latest > vt.get(proc))
            })
            .flat_map(|(proc, records)| {
                let first = records.partition_point(|&(interval, _)| interval <= vt.get(proc));
                records.range(first..).map(move |(interval, pages)| (proc, *interval, &pages[..]))
            })
    }

    /// [`records_after`](Self::records_after) as one write notice per page,
    /// the form that travels.
    pub fn notices_after(&self, vt: &Vt) -> Vec<WriteNotice> {
        let count = self.records_after(vt).map(|(_, _, pages)| pages.len()).sum();
        let mut out = Vec::with_capacity(count);
        for (proc, interval, pages) in self.records_after(vt) {
            out.extend(pages.iter().map(|&page| WriteNotice { page, proc, interval }));
        }
        out
    }

    /// Total number of `(proc, interval)` records.
    pub fn interval_count(&self) -> usize {
        self.per_proc.iter().map(VecDeque::len).sum()
    }

    /// Drops each processor's records covered by `horizon`'s component for
    /// it. Returns the number of `(proc, interval)` records removed.
    ///
    /// Safe once `horizon` is a garbage-collection horizon (every processor
    /// has incorporated the covered intervals into its mapped pages): any
    /// future [`notices_after`](Self::notices_after) query carries a
    /// timestamp covering the horizon, so trimmed records could never be
    /// reported again.
    pub fn trim_covered(&mut self, horizon: &Vt) -> usize {
        let mut removed = 0;
        for (proc, records) in self.per_proc.iter_mut().enumerate() {
            let covered = records.partition_point(|&(interval, _)| interval <= horizon.get(proc));
            if covered > 0 {
                records.drain(..covered);
                removed += covered;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query_notices() {
        let mut log = NoticeLog::new(2);
        assert!(log.record(0, 1, vec![PageId(5), PageId(6)]));
        assert!(!log.record(0, 1, vec![PageId(9)]), "duplicate records are ignored");
        log.record(1, 1, vec![PageId(7)]);
        log.record(0, 2, vec![PageId(5)]);

        assert!(log.contains(0, 1));
        assert!(!log.contains(1, 2));
        assert_eq!(log.interval_count(), 3);

        // A processor that has seen everything of proc 0 up to interval 1.
        let mut vt = Vt::new(2);
        vt.advance(0, 1);
        let missing = log.notices_after(&vt);
        assert_eq!(missing.len(), 2);
        assert!(missing.contains(&WriteNotice { page: PageId(5), proc: 0, interval: 2 }));
        assert!(missing.contains(&WriteNotice { page: PageId(7), proc: 1, interval: 1 }));
    }

    #[test]
    fn trim_covered_is_per_processor_and_idempotent() {
        let mut log = NoticeLog::new(2);
        log.record(0, 1, vec![PageId(1)]);
        log.record(0, 3, vec![PageId(1)]);
        log.record(1, 1, vec![PageId(2)]);
        log.record(1, 4, vec![PageId(2)]);
        let mut horizon = Vt::new(2);
        horizon.advance(0, 3);
        // Processor 1's component stays at zero: its records survive.
        assert_eq!(log.trim_covered(&horizon), 2);
        assert!(!log.contains(0, 1));
        assert!(!log.contains(0, 3));
        assert!(log.contains(1, 1));
        assert!(log.contains(1, 4));
        assert_eq!(log.trim_covered(&horizon), 0, "trimming is idempotent");
    }

    #[test]
    fn notices_after_full_knowledge_is_empty() {
        let mut log = NoticeLog::new(2);
        log.record(0, 1, vec![PageId(1)]);
        log.record(1, 3, vec![PageId(2)]);
        let mut full = Vt::new(2);
        full.advance(0, 1);
        full.advance(1, 3);
        assert!(log.notices_after(&full).is_empty());
    }

    #[test]
    fn out_of_order_records_land_in_interval_order() {
        let mut log = NoticeLog::new(1);
        for interval in [4, 2, 9, 3] {
            assert!(log.record(0, interval, vec![PageId(interval as usize)]));
        }
        assert!(!log.record(0, 3, vec![PageId(0)]));
        let intervals: Vec<Interval> =
            log.notices_after(&Vt::new(1)).iter().map(|n| n.interval).collect();
        assert_eq!(intervals, [2, 3, 4, 9]);
    }
}
