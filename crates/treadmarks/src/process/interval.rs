//! Intervals: ending one's own (the flush — diffs, write notices,
//! write-protection) and learning of others' (write-notice application and
//! the timestamp a merged fetch advertises).

use pagedmem::{PageId, PageTable};

use super::Process;
use crate::notice::NoticeRecord;
use crate::state::{lower_below_missing, CachedDiff, Delta, DiffEntry, ProtoState};
use crate::types::Vt;

/// Counts the maximal runs of consecutive page ids in a sorted list — the
/// number of `mprotect` calls a range-based protection change costs.
pub(super) fn contiguous_runs(pages: &[PageId]) -> u64 {
    let mut runs = 0u64;
    let mut prev: Option<PageId> = None;
    for &page in pages {
        if prev.is_none_or(|p| p.0 + 1 != page.0) {
            runs += 1;
        }
        prev = Some(page);
    }
    runs
}

/// What [`apply_notices_locked`] or [`apply_batch_locked`] did, for cost
/// charging after the hold.
pub(super) struct NoticeTally {
    pub(super) recorded: u64,
    pub(super) invalidation_runs: u64,
}

/// Records incoming notice records under an already-held lock pair: moves
/// each new one into the notice log, extends its pages' missing lists and
/// invalidates their local copies. Records the log already holds, this
/// processor's own and repeats are dropped: every copy of an interval's
/// record is the one its flush built, so `(proc, interval)` names it. Costs
/// are charged by the caller from the returned tally (one protection
/// operation per contiguous run of invalidated pages, like the range
/// `mprotect` of the original system).
///
/// Records apply ascending by `(proc, interval)`, pages in record order:
/// that order decides the missing lists and hence the later fetches, on
/// which every downstream virtual-time measurement depends.
pub(super) fn apply_notices_locked(
    proto: &mut ProtoState,
    table: &mut PageTable,
    mut records: Vec<NoticeRecord>,
) -> NoticeTally {
    let me = proto.me;
    records.retain(|r| r.proc != me);
    records.sort_unstable_by_key(|r| (r.proc, r.interval));
    records.dedup_by_key(|r| (r.proc, r.interval));
    let mut applied = Applied::default();
    for record in records {
        if !proto.notice_log.contains(record.proc, record.interval) {
            applied.record(proto, table, record);
        }
    }
    applied.tally()
}

/// Applies a barrier departure's notice batch under an already-held lock
/// pair: the records above this node's own timestamp, the one it held
/// before the departure's merge, in batch order, its own skipped. The batch
/// is every record above the previous global timestamp, ascending by
/// `(proc, interval)` and without repeats, and every record this node's log
/// holds lies at or below its timestamp; so the records taken are exactly
/// the new ones, in [`apply_notices_locked`]'s order, with nothing sorted,
/// deduplicated or looked up. Debug builds check both, and that the records
/// taken determine the global timestamp the batch does.
pub(super) fn apply_batch_locked(
    proto: &mut ProtoState,
    table: &mut PageTable,
    batch: &[NoticeRecord],
) -> NoticeTally {
    debug_assert!(batch.is_sorted_by_key(|r| (r.proc, r.interval)), "a batch is one log's order");
    #[cfg(debug_assertions)]
    let mut through = proto.vt.clone();
    let mut applied = Applied::default();
    for record in batch {
        if record.proc == proto.me || record.interval <= proto.vt.get(record.proc) {
            continue;
        }
        debug_assert!(
            !proto.notice_log.contains(record.proc, record.interval),
            "P{} already holds P{}'s interval {}, above its own timestamp",
            proto.me,
            record.proc,
            record.interval,
        );
        #[cfg(debug_assertions)]
        through.advance(record.proc, record.interval);
        applied.record(proto, table, record.clone());
    }
    #[cfg(debug_assertions)]
    assert!(
        through == crate::notice::vt_through(&proto.vt, batch),
        "P{}: the records a departure applies must determine the global timestamp",
        proto.me,
    );
    applied.tally()
}

/// The running totals of one notice application.
#[derive(Default)]
struct Applied {
    recorded: u64,
    invalidated: Vec<PageId>,
}

impl Applied {
    /// Moves one record the log does not hold into it: its pages' missing
    /// lists grow and their local copies are invalidated.
    fn record(&mut self, proto: &mut ProtoState, table: &mut PageTable, record: NoticeRecord) {
        let key = (record.proc, record.interval);
        for &page in record.pages.iter() {
            proto.page_missing.entry(page).or_default().push(key);
            if table.invalidate(page) {
                self.invalidated.push(page);
            }
        }
        self.recorded += record.pages.len() as u64;
        proto.notice_log.record(record);
    }

    fn tally(mut self) -> NoticeTally {
        self.invalidated.sort_unstable();
        NoticeTally {
            recorded: self.recorded,
            invalidation_runs: contiguous_runs(&self.invalidated),
        }
    }
}

impl Process {
    /// Ends the current interval: caches a diff for every dirty page (a
    /// [`Delta`] keeps the twin and a copy of the page, and its first reader
    /// encodes them; whoever serves it pays for the encoding, not the
    /// flush), records the
    /// corresponding write notices locally, write-protects the pages and
    /// advances this processor's component of the vector timestamp. A no-op
    /// when nothing was written (a page equal to its twin is elided and
    /// produces no notice). Every release runs it, which makes it the
    /// paper's `Write_protect`: nothing else re-protects a written page.
    pub(super) fn flush_interval(&mut self) {
        let node = self.node.unleased();
        let mut proto = node.proto();
        let mut table = node.table();
        let dirty = table.dirty_pages();
        if dirty.is_empty() {
            return;
        }
        let interval = proto.open_interval();
        let me = proto.me;
        // Happens-before rank of this interval: the timestamp it flushes
        // with. Receivers use it to apply same-page diffs in causal order.
        let vt_after = {
            let mut vt_after = proto.vt.clone();
            vt_after.advance(me, interval);
            vt_after
        };
        let rank = vt_after.sum();
        // The full creating timestamp is kept (and later shipped) only when
        // the race detector is on; otherwise the cache stores the scalar
        // rank alone and the wire format is byte-identical to a
        // detector-less build.
        let creating_vt = self.run.race.as_ref().map(|_| vt_after);
        let mut flushed_pages = Vec::new();
        // One protection operation per contiguous run of dirty pages: the
        // original system write-protects whole ranges with single mprotect
        // calls, so the flush is charged per run, not per page.
        let protect_ops = contiguous_runs(&dirty);
        for page in dirty {
            let entry = match table.write_protect(page) {
                // Write-enabled but never actually modified (or only remote
                // diffs landed): elide the empty diff entirely.
                Some((twin, copy)) if twin == copy => None,
                // Encoded by its first reader; charged by each batch that
                // serves it.
                Some((twin, copy)) => Some(DiffEntry::Delta(Delta::new(twin, copy))),
                // Dirty without a twin: written under `WRITE_ALL`.
                None => Some(DiffEntry::FullPage),
            };
            if let Some(entry) = entry {
                proto
                    .diff_cache
                    .entry(page)
                    .or_default()
                    .insert(interval, CachedDiff { entry, rank, vt: creating_vt.clone() });
                flushed_pages.push(page);
            }
        }
        let pages_in_use = table.pages_in_use();
        drop(table);
        if !flushed_pages.is_empty() {
            let pages = flushed_pages.into();
            proto.notice_log.record(NoticeRecord { proc: me, interval, pages });
            proto.vt.advance(me, interval);
            // The interval the acquire snapshot described is closed; writes
            // of the next interval are ordered after everything known now.
            proto.acquire_race_vt = None;
        }
        drop(proto);
        self.stats.protection_ops(protect_ops);
        self.clock.advance(self.cost.mprotect_cost(pages_in_use).scale(protect_ops));
    }

    /// Charges the costs of an [`apply_notices_locked`] tally after the
    /// hold has been released.
    pub(super) fn charge_notices(&mut self, tally: &NoticeTally, pages_in_use: usize) {
        self.stats.write_notices(tally.recorded);
        self.stats.protection_ops(tally.invalidation_runs);
        self.clock.advance(self.cost.mprotect_cost(pages_in_use).scale(tally.invalidation_runs));
    }
}

/// Builds the vector timestamp advertised by a `Validate_w_sync` request
/// for `pages`, under an already-held proto lock: the processor's own
/// timestamp, lowered so that every still-missing diff of a requested page
/// lies above it.
///
/// Missing intervals at or below the GC horizon are *not* named at
/// synchronization points: their producer may be trimming them
/// concurrently, and whether a delta or a base came back
/// would then depend on a real-time race (breaking virtual-time
/// determinism). They stay missing and are fetched through the explicit
/// base-request path of [`TmkMessage::DiffRequest`](crate::message::TmkMessage)
/// on first use.
pub(super) fn sync_vt_locked(proto: &ProtoState, pages: &[PageId]) -> Vt {
    let mut vt = proto.vt.clone();
    for page in pages {
        let missing = proto.page_missing.get(page).into_iter().flatten();
        let above = missing.filter(|&&(proc, interval)| interval > proto.gc_horizon.get(proc));
        lower_below_missing(&mut vt, above);
    }
    vt
}

#[cfg(test)]
mod tests {
    use pagedmem::{Diff, Page, PageId, PageTable, PAGE_SIZE};
    use racecheck::{RaceLog, SyncKind};
    use sp2model::{CostModel, SharedStats};

    use super::super::race::detect_races_locked;
    use crate::message::DiffRecord;
    use crate::state::{CachedDiff, Delta, DiffEntry, ProtoState};
    use crate::types::{Interval, Vt};
    use crate::{Dsm, DsmConfig, PhasePlan, Process, SyncOp};

    /// The diff of an all-zero page on which `words` (`u32` index, value)
    /// were written.
    fn diff_of(words: &[(usize, u32)]) -> Diff {
        let mut page = [0u8; PAGE_SIZE];
        for &(word, value) in words {
            page[4 * word..4 * word + 4].copy_from_slice(&value.to_le_bytes());
        }
        Diff::create(&[0u8; PAGE_SIZE], &page)
    }

    /// The delta of `page` for `interval` that `proto`'s cache holds.
    fn delta(proto: &ProtoState, page: PageId, interval: Interval) -> &Delta {
        match &proto.diff_cache[&page][&interval].entry {
            DiffEntry::Delta(delta) => delta,
            DiffEntry::FullPage => panic!("{page:?} was not written under WRITE_ALL"),
        }
    }

    /// A delta is encoded from the two pages its flush kept, not from the
    /// live frame: after P0 flushes page X a concurrent writer's diff lands
    /// on X, and a reduction installs into P0's copy of Y, both before
    /// anyone asks for P0's interval. The diffs P1 is then served are the
    /// eager encodings of X and Y as they were at the flush. A page written
    /// back to its twin's value (Z) is elided: no notice, no cache entry.
    #[test]
    fn a_lazy_delta_encodes_the_page_as_it_was_flushed() {
        let run = Dsm::run(DsmConfig::new(2).with_cost_model(CostModel::free()), |p| {
            let words = PAGE_SIZE / 4;
            let a = p.alloc_array::<u32>(3 * words);
            let [x, y, z] = [0, 1, 2].map(|k| PageId::containing(a.addr_of(k * words)));
            if p.proc_id() == 0 {
                p.set(&a, 0, 11);
                p.set(&a, words, 22);
                p.set(&a, 2 * words + 8, 33);
                p.set(&a, 2 * words + 8, 0);
            } else {
                p.set(&a, 512, 44);
            }
            p.barrier();
            if p.proc_id() == 0 {
                // P1's diff lands on X after P0 flushed it.
                assert_eq!(p.get(&a, 512), 44);
            }
            // The totals land in P0's copy of Y, raw, after the flush.
            let section = a.range_of(words + 512, words + 514);
            let wants = [vec![section], vec![]];
            p.reduce_add(section, &[5 + p.proc_id() as u64], &wants);
            if p.proc_id() == 0 {
                assert_eq!(p.get(&a, words + 512), 11);
                return;
            }
            // P1's first requests for P0's interval.
            assert_eq!((p.get(&a, 0), p.get(&a, 512), p.get(&a, words)), (11, 44, 22));
            assert_eq!(p.get(&a, words + 512), 0, "the reduction is not in the diff");
            let proto = p.lanes[0].shared.proto.lock();
            for (page, written) in [(x, 11), (y, 22)] {
                assert!(!delta(&proto, page, 1).is_pending(), "serving {page:?} encoded it");
                assert_eq!(delta(&proto, page, 1).diff(), diff_of(&[(0, written)]), "{page:?}");
            }
            assert!(!proto.diff_cache.contains_key(&z), "Z equals its twin: nothing to cache");
            let nothing = Vt::new(2);
            let noticed: Vec<&[PageId]> = proto
                .notice_log
                .records_after(&nothing)
                .filter(|r| r.proc == 0)
                .map(|r| &r.pages[..])
                .collect();
            assert_eq!(noticed, [[x, y]], "Z equals its twin: no notice");
        });
        assert_eq!(run.stats.total().diffs_created, 3);
    }

    /// Serving one delta to two requesters and checking it in the race
    /// detector encodes it once: the first read releases its two pages, so
    /// every later read can only share that encoding. A delta the GC trims
    /// unread goes without ever having been encoded.
    #[test]
    fn a_delta_is_encoded_once_and_never_if_trimmed_unread() {
        let (unread, served) = (PageId(3), PageId(4));
        let mut written = Page::zeroed();
        written.as_mut_slice()[..4].copy_from_slice(&9u32.to_le_bytes());
        let mut proto = ProtoState::new(0, 3);
        for (page, interval) in [(unread, 1), (served, 2)] {
            let mut vt = Vt::new(3);
            vt.advance(0, interval);
            let entry = DiffEntry::Delta(Delta::new(Page::zeroed(), written.clone()));
            let cached = CachedDiff { entry, rank: vt.sum(), vt: Some(vt) };
            proto.diff_cache.entry(page).or_default().insert(interval, cached);
        }
        proto.vt.advance(0, 2);
        let table = PageTable::new();
        let serve = |proto: &ProtoState| {
            let records = proto.diffs_for_pages_after(&[served], 0, &table, &mut Vec::new());
            assert_eq!(records.len(), 1);
            records[0].diff.clone()
        };

        let first = serve(&proto);
        assert!(!delta(&proto, served, 2).is_pending(), "the first read released both pages");
        // A concurrent writer of the same word: the detector reads the
        // cached delta to find the overlap.
        let (stats, log) = (SharedStats::new(), RaceLog::new(false));
        let mut theirs = Vt::new(3);
        theirs.advance(1, 1);
        let incoming = DiffRecord {
            page: served,
            proc: 1,
            interval: 1,
            rank: theirs.sum(),
            base: None,
            diff: diff_of(&[(0, 7)]),
            vt: Some(theirs),
        };
        detect_races_locked(&stats, &log, &proto, &table, &[incoming], SyncKind::Barrier, None);
        assert_eq!((stats.snapshot().races_detected, log.drain_sorted().len()), (1, 1));
        let second = serve(&proto);
        assert_eq!([&first, &second], [&diff_of(&[(0, 9)]); 2]);
        assert_eq!(delta(&proto, served, 2).diff(), first);

        assert!(delta(&proto, unread, 1).is_pending(), "nothing read the other delta");
        let mut horizon = Vt::new(3);
        horizon.advance(0, 1);
        assert_eq!(proto.gc_trim(&horizon, &[]).0, 1);
        assert!(!proto.diff_cache.contains_key(&unread), "trimmed without being encoded");
        assert!(proto.trimmed.contains(&unread) && !proto.trimmed.contains(&served));
    }

    /// Whether a flushed page ships a delta or the whole page is read off
    /// its frame alone: a page written under `WRITE_ALL` at any point of an
    /// interval — before or after a twinned write of it — is dirty without a
    /// twin and caches `FullPage`; the next interval's twinned write of the
    /// same page caches a `Delta` again.
    #[test]
    fn a_dirty_frame_without_a_twin_is_a_write_all_page() {
        Dsm::run(DsmConfig::new(2).with_cost_model(CostModel::free()), |p| {
            let words = PAGE_SIZE / 4;
            let a = p.alloc_array::<u32>(2 * words);
            let [x, y] = [0, 1].map(|k| PageId::containing(a.addr_of(k * words)));
            let whole = |k: usize| a.range_of(k * words, (k + 1) * words);
            let write_all = |k| PhasePlan { write_all: vec![whole(k)], ..PhasePlan::default() };
            if p.proc_id() == 0 {
                // X: a twinned write, then WRITE_ALL.
                p.set(&a, 0, 1);
                p.prepare_phase(&write_all(0));
                // Y: WRITE_ALL, then a twinned write.
                p.prepare_phase(&write_all(1));
                p.prepare_phase(&PhasePlan {
                    write_twinned: vec![whole(1)],
                    ..PhasePlan::default()
                });
                assert!(!p.node.unleased().table().has_twin(y), "a twinned write adds no twin");
            }
            // Each check reads the barrier's own flush: the next barrier's
            // trim drops it, as nobody maps either page.
            let flushed = |p: &Process, page: PageId, interval| {
                let proto = p.lanes[0].shared.proto.lock();
                matches!(proto.diff_cache[&page][&interval].entry, DiffEntry::FullPage)
            };
            p.barrier();
            if p.proc_id() == 0 {
                assert!(flushed(p, x, 1) && flushed(p, y, 1), "both pages ship whole");
                p.set(&a, words, 7);
            }
            p.barrier();
            if p.proc_id() == 0 {
                assert!(!flushed(p, y, 2), "the next interval twins Y and ships a delta");
            }
        });
    }

    /// Four processors each write only their own page, so every node keeps
    /// a missing entry per interval of the three pages it never maps. Below
    /// the GC horizon only a writer's lowest entry is ever read, and the
    /// trim folds the rest into it: the history stays at one entry per
    /// writer below the horizon however many barriers pass, where keeping
    /// every entry would hold 30 after 10 barriers and 120 after 40.
    #[test]
    fn missing_history_below_the_horizon_stays_bounded() {
        let run = Dsm::run(DsmConfig::new(4).with_cost_model(CostModel::free()), |p| {
            let me = p.proc_id();
            let words = PAGE_SIZE / 4;
            let a = p.alloc_array::<u32>(4 * words);
            let mut held = Vec::new();
            for barrier in 1..=40u32 {
                p.set(&a, me * words, barrier);
                p.barrier();
                if barrier % 10 != 0 {
                    continue;
                }
                let proto = p.lanes[me].shared.proto.lock();
                for missing in proto.page_missing.values() {
                    for proc in 0..4 {
                        let below = missing
                            .iter()
                            .filter(|&&(p, i)| p == proc && i <= proto.gc_horizon.get(p));
                        assert!(below.count() <= 1, "P{me}: {missing:?}");
                    }
                }
                held.push(proto.page_missing.values().map(Vec::len).sum::<usize>());
            }
            assert_eq!(held, [6; 4], "P{me}: entries held after 10, 20, 30 and 40 barriers");
        });
        assert_eq!(run.stats.total().barriers, 4 * 40);
    }

    /// P1 writes page X twice in one epoch, once before a lock release and
    /// once before the barrier, so that barrier tells P2, which has never
    /// mapped X, of two missing intervals. At the next barrier P2 fetches X
    /// merged with it; that barrier's horizon passes both intervals while
    /// their deltas, asked for against the previous horizon, are still in
    /// flight. The trim must leave those entries apart, or the first delta
    /// claims both and the second's writes are lost.
    #[test]
    fn a_merged_fetch_keeps_every_delta_the_trim_passes() {
        Dsm::run(DsmConfig::new(3).with_cost_model(CostModel::free()), |p| {
            let words = PAGE_SIZE / 4;
            let a = p.alloc_array::<u32>(2 * words);
            let x = a.range_of(words, 2 * words);
            if p.proc_id() == 1 {
                p.lock_acquire(0);
                p.set(&a, words, 11);
                p.lock_release(0);
                p.set(&a, words + 1, 22);
            }
            p.barrier();
            if p.proc_id() == 2 {
                let plan = PhasePlan { fetch: vec![x], ..PhasePlan::default() };
                p.sync_phase(SyncOp::Barrier, &plan, |_| {});
                assert_eq!([p.get(&a, words), p.get(&a, words + 1)], [11, 22]);
            } else {
                p.barrier();
            }
        });
    }
}
