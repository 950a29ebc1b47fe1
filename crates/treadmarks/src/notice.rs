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

/// Raises `vt` to `vt ⊔ {(r.proc, r.interval)}`: over a `base` its receiver
/// holds, the timestamp a message's own notice records determine.
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
pub(crate) fn raise_through(vt: &mut Vt, records: &[NoticeRecord]) {
    for record in records {
        vt.advance(record.proc, record.interval);
    }
}

/// Whether a receiver holding `base` rebuilds from `records` exactly what
/// merging the `sender`'s whole timestamp would give it — the check every
/// sender of a timestamp-free message makes in debug builds.
///
/// It reads the two timestamps in place, so the check allocates nothing:
/// no record is above `base ⊔ sender`, and every component in which the
/// sender is ahead of the base has a record reaching it.
pub(crate) fn notices_determine(base: &Vt, records: &[NoticeRecord], sender: &Vt) -> bool {
    let joined = |p| base.get(p).max(sender.get(p));
    let ahead = |p: ProcId| sender.get(p) > base.get(p);
    records.iter().all(|r| r.interval <= joined(r.proc))
        && (0..sender.width())
            .filter(|&p| ahead(p))
            .all(|p| records.iter().any(|r| r.proc == p && r.interval >= sender.get(p)))
}

/// Everything a processor knows about modifications in the system: each
/// processor's [`NoticeRecord`]s above the GC horizon, and the pages its
/// trimmed records named.
///
/// Records are kept in *segments* as they arrived — a barrier departure's
/// batch whole, shared with every node it reached (one `Arc` bump however
/// many records it carries), a flush's, an arrival's or a grant's records
/// as small ones — behind one index of slots in `(proc, interval)` order,
/// the order every query answers in. A segment's slots merge into it in
/// one pass, every barrier's trim drops the covered ones in one pass, and a
/// segment goes once nothing indexes it.
#[derive(Debug, Clone, Default)]
pub struct NoticeLog {
    /// Segment `first + k` and how many index entries point into it;
    /// `None` once none does.
    segments: VecDeque<Option<(Segment, usize)>>,
    first: u64,
    /// Where every record is, one slot per `(proc, interval)`, ascending.
    slots: Vec<Slot>,
    /// A segment's new slots on their way into `slots`, kept for its buffer.
    fresh: Vec<Slot>,
    /// Bit `page · nprocs + p`: processor `p`'s trimmed records named `page`.
    trimmed: Bits,
    nprocs: usize,
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

/// Where a record is: its writer and interval (the index's order), its
/// segment and its place there.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    proc: u32,
    interval: Interval,
    segment: u64,
    offset: u32,
}

impl Slot {
    fn key(&self) -> (u32, Interval) {
        (self.proc, self.interval)
    }
}

impl NoticeLog {
    /// An empty log for `nprocs` processors, with room for two records a
    /// processor, what a barrier-synchronized run holds above the horizon.
    pub fn new(nprocs: usize) -> NoticeLog {
        let (slots, fresh) = (Vec::with_capacity(2 * nprocs), Vec::with_capacity(nprocs));
        NoticeLog { slots, fresh, nprocs, ..NoticeLog::default() }
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
        let mut fresh = std::mem::take(&mut self.fresh);
        fresh.clear();
        for (offset, record) in records.iter().enumerate().filter(|(_, r)| take(r)) {
            let (proc, interval, offset) = (record.proc as u32, record.interval, offset as u32);
            fresh.push(Slot { proc, interval, segment, offset });
        }
        // Sorted already but for the rare interval learned along a lock
        // chain after a later one; a record named twice, or held already,
        // is indexed once (one pass over both, both sorted).
        if !fresh.is_sorted_by_key(Slot::key) {
            fresh.sort_by_key(Slot::key);
        }
        fresh.dedup_by_key(|slot| slot.key());
        let mut held = self.slots.iter().map(Slot::key).peekable();
        fresh.retain(|slot| {
            while held.next_if(|&key| key < slot.key()).is_some() {}
            held.peek() != Some(&slot.key())
        });
        // Merged from the back: each held slot moves once.
        let (mut held, slots) = (self.slots.len(), &mut self.slots);
        slots.resize(held + fresh.len(), Slot::default());
        for (left, new) in fresh.iter().enumerate().rev() {
            while held > 0 && slots[held - 1].key() > new.key() {
                slots[held + left] = slots[held - 1];
                held -= 1;
            }
            slots[held + left] = *new;
        }
        let indexed = fresh.len();
        if indexed > 0 {
            self.segments.push_back(Some((records, indexed)));
        }
        self.fresh = fresh;
        indexed
    }

    /// The record `slot` points to.
    fn at(&self, slot: &Slot) -> &NoticeRecord {
        let segment = self.segments[(slot.segment - self.first) as usize].as_ref();
        &segment.expect("an indexed segment is held").0[slot.offset as usize]
    }

    /// Whether the log already contains `(proc, interval)`.
    pub fn contains(&self, proc: ProcId, interval: Interval) -> bool {
        self.slots.binary_search_by_key(&(proc as u32, interval), Slot::key).is_ok()
    }

    /// The slots of the records above `vt[proc]`.
    fn slots_after<'a>(&'a self, vt: &'a Vt) -> impl Iterator<Item = &'a Slot> {
        self.slots.iter().filter(|slot| slot.interval > vt.get(slot.proc as usize))
    }

    /// The records with `interval > vt[proc]` — exactly what a processor
    /// with timestamp `vt` has not yet seen — in ascending
    /// `(proc, interval)` order. Cloning one to send it is an `Arc` bump.
    pub fn records_after<'a>(&'a self, vt: &'a Vt) -> impl Iterator<Item = &'a NoticeRecord> + 'a {
        self.slots_after(vt).map(|slot| self.at(slot))
    }

    /// [`records_after`](Self::records_after), cloned into the list a
    /// message carries: an `Arc` bump a record, one allocation sized from
    /// the index.
    pub fn clone_after(&self, vt: &Vt) -> Vec<NoticeRecord> {
        let mut out = Vec::with_capacity(self.slots_after(vt).count());
        out.extend(self.records_after(vt).cloned());
        out
    }

    /// Total number of `(proc, interval)` records.
    pub fn interval_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether processor `proc`'s trimmed records named `page`.
    pub(crate) fn trimmed(&self, proc: ProcId, page: PageId) -> bool {
        self.trimmed.contains(page.0 * self.nprocs + proc)
    }

    /// The processors whose trimmed records named `page`, ascending.
    pub(crate) fn trimmed_writers(&self, page: PageId) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.nprocs).filter(move |&proc| self.trimmed(proc, page))
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
        let NoticeLog { segments, first, slots, trimmed, nprocs, .. } = self;
        let held = slots.len();
        slots.retain(|slot| {
            let proc = slot.proc as usize;
            if slot.interval > horizon.get(proc) {
                return true;
            }
            let segment = &mut segments[(slot.segment - *first) as usize];
            let (records, indexed) = segment.as_mut().expect("an indexed segment is held");
            for page in records[slot.offset as usize].pages.iter() {
                trimmed.insert(page.0 * *nprocs + proc);
            }
            *indexed -= 1;
            if *indexed == 0 {
                *segment = None;
            }
            false
        });
        while segments.pop_front_if(|segment| segment.is_none()).is_some() {
            *first += 1;
        }
        held - slots.len()
    }
}

/// A set of dense indices, one bit each.
#[derive(Debug, Clone, Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn insert(&mut self, index: usize) {
        let word = index / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (index % 64);
    }

    fn contains(&self, index: usize) -> bool {
        self.0.get(index / 64).is_some_and(|word| word >> (index % 64) & 1 == 1)
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
        let trimmed = |proc| (0..8).filter(|&p| log.trimmed(proc, PageId(p))).collect::<Vec<_>>();
        assert_eq!(trimmed(0), [1, 4], "each dropped record's pages are noted");
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
