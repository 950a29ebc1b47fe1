//! Write notices and the per-processor notice log.

use std::collections::{vec_deque, VecDeque};
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

/// Everything a processor knows about modifications in the system: each
/// processor's [`NoticeRecord`]s above the GC horizon, and the pages its
/// trimmed records named.
///
/// Records are kept in *segments* as they arrived — a barrier departure's
/// batch whole, shared with every node it reached (one `Arc` bump however
/// many records it carries), a flush's, an arrival's or a grant's records
/// as small ones — behind a per-processor index ascending by interval, so
/// every query answers in `(proc, interval)` order. Records arrive almost
/// always in interval order, so an index is a queue: appended at the back,
/// popped at the front by every barrier's trim. A segment goes once
/// nothing indexes it.
#[derive(Debug, Clone, Default)]
pub struct NoticeLog {
    /// Segment `first + k` and how many index entries point into it;
    /// `None` once none does.
    segments: VecDeque<Option<(Segment, usize)>>,
    first: u64,
    /// `per_proc[p]`: where processor `p`'s records are, one per interval.
    per_proc: Vec<VecDeque<Slot>>,
    /// `trimmed[p]`: the pages processor `p`'s trimmed records named.
    trimmed: Vec<PageBits>,
}

/// Records that arrived together: a flush's, an arrival's or a grant's
/// (owned), or a departure's batch (shared).
#[derive(Debug, Clone)]
pub(crate) enum Segment {
    One(NoticeRecord),
    Owned(Vec<NoticeRecord>),
    Shared(Arc<[NoticeRecord]>),
}

impl std::ops::Deref for Segment {
    type Target = [NoticeRecord];

    fn deref(&self) -> &[NoticeRecord] {
        match self {
            Segment::One(record) => std::slice::from_ref(record),
            Segment::Owned(records) => records,
            Segment::Shared(records) => records,
        }
    }
}

/// Where a record is: its interval, its segment and its place there.
#[derive(Debug, Clone, Copy)]
struct Slot {
    interval: Interval,
    segment: u64,
    offset: u32,
}

impl NoticeLog {
    /// An empty log for `nprocs` processors.
    pub fn new(nprocs: usize) -> NoticeLog {
        let (per_proc, trimmed) =
            (vec![VecDeque::new(); nprocs], vec![PageBits::default(); nprocs]);
        NoticeLog { segments: VecDeque::new(), first: 0, per_proc, trimmed }
    }

    /// Records `record`. A second record of the same `(proc, interval)` is
    /// ignored (the first recording wins); returns whether it was new.
    pub fn record(&mut self, record: NoticeRecord) -> bool {
        self.record_segment(Segment::One(record), |_| true) == 1
    }

    /// Adds `records` as one segment, indexing each that `take` accepts and
    /// the log does not hold yet; returns how many it indexed.
    pub(crate) fn record_segment(
        &mut self,
        records: Segment,
        take: impl Fn(&NoticeRecord) -> bool,
    ) -> usize {
        let segment = self.first + self.segments.len() as u64;
        let mut indexed = 0;
        for (offset, record) in records.iter().enumerate().filter(|(_, r)| take(r)) {
            let slot = Slot { interval: record.interval, segment, offset: offset as u32 };
            let slots = &mut self.per_proc[record.proc];
            // The rare out-of-order record (an interval learned along a lock
            // chain after a later one of the same processor) is inserted.
            let at = match slots.back() {
                Some(latest) if latest.interval >= record.interval => {
                    slots.binary_search_by_key(&record.interval, |s| s.interval)
                }
                _ => Err(slots.len()),
            };
            if let Err(at) = at {
                slots.insert(at, slot);
                indexed += 1;
            }
        }
        if indexed > 0 {
            self.segments.push_back(Some((records, indexed)));
        }
        indexed
    }

    /// The record `slot` points to.
    fn at(&self, slot: &Slot) -> &NoticeRecord {
        let segment = self.segments[(slot.segment - self.first) as usize].as_ref();
        &segment.expect("an indexed segment is held").0[slot.offset as usize]
    }

    /// Whether the log already contains `(proc, interval)`.
    pub fn contains(&self, proc: ProcId, interval: Interval) -> bool {
        self.per_proc[proc].binary_search_by_key(&interval, |s| s.interval).is_ok()
    }

    /// Per processor, where its records above `vt[proc]` are.
    fn slots_after<'a>(&'a self, vt: &'a Vt) -> impl Iterator<Item = vec_deque::Iter<'a, Slot>> {
        let procs = self.per_proc.iter().enumerate();
        // Most processors have nothing new for most timestamps, and one
        // look at an index's newest entry says so.
        let fresh =
            procs.filter(|&(p, slots)| slots.back().is_some_and(|s| s.interval > vt.get(p)));
        fresh.map(|(p, slots)| slots.range(slots.partition_point(|s| s.interval <= vt.get(p))..))
    }

    /// The records with `interval > vt[proc]` — exactly what a processor
    /// with timestamp `vt` has not yet seen — in ascending
    /// `(proc, interval)` order. Cloning one to send it is an `Arc` bump.
    pub fn records_after<'a>(&'a self, vt: &'a Vt) -> impl Iterator<Item = &'a NoticeRecord> + 'a {
        self.slots_after(vt).flatten().map(|slot| self.at(slot))
    }

    /// [`records_after`](Self::records_after), cloned into the list a
    /// message carries: an `Arc` bump a record, one allocation sized from
    /// the index.
    pub fn clone_after(&self, vt: &Vt) -> Vec<NoticeRecord> {
        let mut out = Vec::with_capacity(self.slots_after(vt).map(|slots| slots.len()).sum());
        out.extend(self.slots_after(vt).flatten().map(|slot| self.at(slot).clone()));
        out
    }

    /// Total number of `(proc, interval)` records.
    pub fn interval_count(&self) -> usize {
        self.per_proc.iter().map(VecDeque::len).sum()
    }

    /// The pages named by processor `proc`'s trimmed records.
    pub(crate) fn trimmed_of(&self, proc: ProcId) -> &PageBits {
        &self.trimmed[proc]
    }

    /// Drops each processor's records covered by `horizon`'s component for
    /// it, noting the pages they named, and the segments nothing indexes
    /// any more; returns the number of records dropped.
    ///
    /// Safe once `horizon` is a garbage-collection horizon (every processor
    /// has incorporated the covered intervals into its mapped pages): any
    /// future [`records_after`](Self::records_after) query carries a
    /// timestamp covering the horizon, so trimmed records could never be
    /// reported again.
    pub fn trim_covered(&mut self, horizon: &Vt) -> usize {
        let NoticeLog { segments, first, per_proc, trimmed } = self;
        let mut removed = 0;
        for (proc, slots) in per_proc.iter_mut().enumerate() {
            while let Some(slot) = slots.pop_front_if(|s| s.interval <= horizon.get(proc)) {
                let held = &mut segments[(slot.segment - *first) as usize];
                let (records, indexed) = held.as_mut().expect("an indexed segment is held");
                trimmed[proc].insert_all(&records[slot.offset as usize].pages);
                *indexed -= 1;
                if *indexed == 0 {
                    *held = None;
                }
                removed += 1;
            }
        }
        while segments.pop_front_if(|held| held.is_none()).is_some() {
            *first += 1;
        }
        removed
    }
}

/// A set of pages, one bit each (page ids are dense from 0).
#[derive(Debug, Clone, Default)]
pub(crate) struct PageBits(Vec<u64>);

impl PageBits {
    /// Adds `page`; returns whether it was new.
    pub(crate) fn insert(&mut self, page: PageId) -> bool {
        let (word, bit) = (page.0 / 64, 1u64 << (page.0 % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let new = self.0[word] & bit == 0;
        self.0[word] |= bit;
        new
    }

    /// Adds `pages`, ascending.
    fn insert_all(&mut self, pages: &[PageId]) {
        let Some(last) = pages.last() else { return };
        if last.0 / 64 >= self.0.len() {
            self.0.resize(last.0 / 64 + 1, 0);
        }
        for page in pages {
            self.0[page.0 / 64] |= 1 << (page.0 % 64);
        }
    }

    pub(crate) fn contains(&self, page: PageId) -> bool {
        self.0.get(page.0 / 64).is_some_and(|word| word >> (page.0 % 64) & 1 == 1)
    }

    /// The pages held, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = PageId> + '_ {
        let bits = self.0.iter().enumerate();
        bits.flat_map(|(word, &bits)| {
            (0..64).filter(move |bit| bits >> bit & 1 == 1).map(move |bit| PageId(64 * word + bit))
        })
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
        log.record(rec(0, 3, &[4]));
        log.record(rec(1, 1, &[2]));
        log.record(rec(1, 4, &[2]));
        let mut horizon = Vt::new(2);
        horizon.advance(0, 3);
        // Processor 1's component stays at zero: its records survive.
        assert_eq!(log.trim_covered(&horizon), 2);
        let trimmed = |proc| log.trimmed_of(proc).iter().collect::<Vec<_>>();
        assert_eq!(trimmed(0), [PageId(1), PageId(4)], "each dropped record's pages are noted");
        assert!(trimmed(1).is_empty());
        assert!(!log.contains(0, 1));
        assert!(!log.contains(0, 3));
        assert!(log.contains(1, 1));
        assert!(log.contains(1, 4));
        assert_eq!(log.segments.len(), 2, "the two dropped records' segments went");
        assert_eq!(log.trim_covered(&horizon), 0, "trimming is idempotent");
    }

    /// A batch is held whole, once, however many of its records a log
    /// takes; it goes when the last of them is trimmed.
    #[test]
    fn a_batch_is_one_segment_until_its_last_record_goes() {
        let batch: Arc<[NoticeRecord]> = [rec(0, 1, &[1]), rec(0, 2, &[1]), rec(1, 1, &[2])].into();
        let mut log = NoticeLog::new(2);
        log.record_segment(Segment::Shared(Arc::clone(&batch)), |r| r.proc == 0);
        assert_eq!(Arc::strong_count(&batch), 2, "one reference for the whole batch");
        assert_eq!(keys(&log, &Vt::new(2)), [(0, 1), (0, 2)]);
        let mut horizon = Vt::new(2);
        horizon.advance(0, 1);
        log.trim_covered(&horizon);
        assert_eq!(Arc::strong_count(&batch), 2, "(0, 2) still points into it");
        horizon.advance(0, 2);
        log.trim_covered(&horizon);
        assert_eq!(Arc::strong_count(&batch), 1, "nothing indexes it any more");
        assert_eq!(log.interval_count(), 0);
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
