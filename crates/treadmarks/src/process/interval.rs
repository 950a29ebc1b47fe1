//! Intervals: ending one's own (the flush — diffs, write notices,
//! write-protection) and learning of others' (write-notice application and
//! the timestamp a merged fetch advertises).

use pagedmem::{PageId, PageTable};

use super::sync::PrepTally;
use super::Process;
use crate::notice::{NoticeRecord, Segment};
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

/// What [`apply_notices_locked`] did, for cost charging after the hold.
pub(super) struct NoticeTally {
    pub(super) recorded: u64,
    pub(super) invalidation_runs: u64,
}

/// Applies the notice records a barrier arrival, a barrier departure or a
/// lock grant delivers, under an already-held lock pair, one segment after
/// another: each record above this node's timestamp, its own skipped, in
/// the segment's order, extends its materialised pages' missing lists and
/// invalidates their local copies; the log keeps the segment, indexing the
/// records taken, and the timestamp is raised through them. Costs are
/// charged by the caller from the returned tally (one protection operation
/// per contiguous run of invalidated pages, like the range `mprotect` of
/// the original system).
///
/// A record is new exactly when it lies above the timestamp (DESIGN §5), so
/// nothing is sorted, deduplicated or looked up: each segment is one log's
/// `(proc, interval)` order, and a record a later segment repeats lies at or
/// below the timestamp an earlier one raised. Debug builds check the rule
/// on every record. A missing list's entries follow the segments' order,
/// which no reader depends on: each sorts the list or takes a minimum.
pub(super) fn apply_notices_locked(
    proto: &mut ProtoState,
    table: &mut PageTable,
    segments: impl IntoIterator<Item = Segment>,
) -> NoticeTally {
    let (me, mut applied) = (proto.me, Applied::default());
    for segment in segments {
        for record in segment.iter() {
            let covered = record.interval <= proto.vt.get(record.proc);
            debug_assert!(
                covered == knows(proto, record),
                "P{me}: P{}'s interval {} is {} the timestamp {} but {}",
                record.proc,
                record.interval,
                if covered { "at or below" } else { "above" },
                proto.vt,
                if covered { "unknown: a hole" } else { "known" },
            );
            // It flushed its own records: the timestamp covers them.
            debug_assert!(covered || record.proc != me, "P{me}: its own record lies ahead");
            if !covered && record.proc != me {
                applied.record(proto, table, record);
            }
        }
        let vt = &mut proto.vt;
        proto.notice_log.record_segment(segment, |r| {
            let new = r.proc != me && r.interval > vt.get(r.proc);
            if new {
                vt.advance(r.proc, r.interval);
            }
            new
        });
    }
    applied.tally()
}

/// Whether `proto` knows `record`: its log holds it, or the GC horizon
/// covers it. The prefix rule's debug check, never a filter.
fn knows(proto: &ProtoState, record: &NoticeRecord) -> bool {
    record.interval <= proto.gc_horizon.get(record.proc)
        || proto.notice_log.contains(record.proc, record.interval)
}

/// The running totals of one notice application.
#[derive(Default)]
struct Applied {
    recorded: u64,
    invalidated: Vec<PageId>,
}

impl Applied {
    /// Applies one record the log does not hold, which its caller then
    /// logs: the missing lists of its materialised pages grow and their
    /// local copies are invalidated (every mapped page is materialised).
    /// Any other page's missing set is read off the log when the page is
    /// materialised (see [`ProtoState::materialise`]), so the record costs
    /// it one bit test: no entry, no list, nothing for the trim to fold.
    fn record(&mut self, proto: &mut ProtoState, table: &mut PageTable, record: &NoticeRecord) {
        let key = (record.proc, record.interval);
        for &page in record.pages.iter() {
            let Some(missing) = proto.missing_mut(page) else { continue };
            missing.push(key);
            if table.invalidate(page) {
                self.invalidated.push(page);
            }
        }
        self.recorded += record.pages.len() as u64;
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
        // Happens-before rank of this interval: the sum of the timestamp it
        // flushes with, this node's own component raised to the interval.
        // Receivers use it to apply same-page diffs in causal order.
        let rank = proto.vt.sum() + u64::from(interval - proto.vt.get(me));
        // The full creating timestamp is kept (and later shipped) only when
        // the race detector is on; otherwise the cache stores the scalar
        // rank alone and the wire format is byte-identical to a
        // detector-less build.
        let creating_vt = self.run.race.as_ref().map(|_| {
            let mut vt_after = proto.vt.clone();
            vt_after.advance(me, interval);
            vt_after
        });
        let mut flushed_pages = Vec::with_capacity(dirty.len());
        let mut diffs = Vec::with_capacity(dirty.len());
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
                diffs.push(CachedDiff { entry, rank, vt: creating_vt.clone() });
                flushed_pages.push(page);
            }
        }
        let pages_in_use = table.pages_in_use();
        drop(table);
        if !flushed_pages.is_empty() {
            proto.close_interval(flushed_pages, diffs);
        }
        drop(proto);
        self.charge_prep(&PrepTally { twinned: 0, protect_ranges: protect_ops }, pages_in_use);
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
///
/// This is where a merged fetch or a lock piggyback marks the pages it
/// names, empty lists too: a record learned at the same synchronization
/// then lands in the page's exact list, and the trim folds it at the
/// horizon the request was built against (see [`ProtoState::gc_trim`]).
pub(super) fn sync_vt_locked(proto: &mut ProtoState, pages: &[PageId]) -> Vt {
    proto.materialise(pages.iter().copied());
    let mut vt = proto.vt.clone();
    for &page in pages {
        let missing = proto.missing(page).iter();
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
        match &proto.cached(page, interval).expect("a queued interval").entry {
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
            assert!(proto.cached_after(z, 0).is_none(), "Z equals its twin: nothing to cache");
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
            assert_eq!(proto.open_interval(), interval);
            proto.close_interval(vec![page], vec![cached]);
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
        assert!(proto.cached_after(unread, 0).is_none(), "trimmed without being encoded");
        assert!(proto.trimmed(unread) && !proto.trimmed(served));
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
                let cached = proto.cached(page, interval).expect("a queued interval");
                matches!(cached.entry, DiffEntry::FullPage)
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

    /// Four processors each write only their own page. A node materialises
    /// only the page it maps, and holds no missing list for the three it
    /// never maps, however many notices name them;
    /// below the GC horizon only a writer's lowest entry is ever read, and
    /// the trim folds the rest into it. Keeping a list for every noticed
    /// page held 6 entries a node at each check, and keeping every entry
    /// 30 after 10 barriers and 120 after 40.
    #[test]
    fn missing_history_below_the_horizon_stays_bounded() {
        let run = Dsm::run(DsmConfig::new(4).with_cost_model(CostModel::free()), |p| {
            let me = p.proc_id();
            let words = PAGE_SIZE / 4;
            let a = p.alloc_array::<u32>(4 * words);
            let own = PageId::containing(a.addr_of(me * words));
            let mut held = Vec::new();
            for barrier in 1..=40u32 {
                p.set(&a, me * words, barrier);
                p.barrier();
                if barrier % 10 != 0 {
                    continue;
                }
                let proto = p.lanes[me].shared.proto.lock();
                for (_, missing) in proto.lists() {
                    for proc in 0..4 {
                        let below = missing
                            .iter()
                            .filter(|&&(p, i)| p == proc && i <= proto.gc_horizon.get(p));
                        assert!(below.count() <= 1, "P{me}: {missing:?}");
                    }
                }
                let listed = proto.lists().filter(|(_, missing)| !missing.is_empty());
                assert!(listed.map(|(page, _)| page).all(|page| page == own), "P{me}: a list");
                held.push(proto.materialised_pages());
            }
            let materialised = vec![vec![own]; 4];
            assert_eq!(held, materialised, "P{me}: after 10, 20, 30 and 40 barriers");
        });
        assert_eq!(run.stats.total().barriers, 4 * 40);
    }

    /// Eight processors each write only their own page for 40 barriers:
    /// every notice a node receives names a page it never maps, and it
    /// keeps no list for any of them, nor marks any but its own page.
    /// That a notice allocates nothing per such page is `notice_allocs`'s.
    #[test]
    fn a_page_a_node_never_maps_holds_no_list() {
        let run = Dsm::run(DsmConfig::new(8).with_cost_model(CostModel::free()), |p| {
            let me = p.proc_id();
            let words = PAGE_SIZE / 4;
            let a = p.alloc_array::<u32>(8 * words);
            for barrier in 1..=40u32 {
                p.set(&a, me * words, barrier);
                p.barrier();
            }
            let own = PageId::containing(a.addr_of(me * words));
            let proto = p.lanes[me].shared.proto.lock();
            let lists: Vec<_> = proto.lists().collect();
            assert!(lists.iter().all(|(_, missing)| missing.is_empty()), "P{me}: {lists:?}");
            assert_eq!(proto.materialised_pages(), [own], "P{me}");
        });
        assert_eq!(run.stats.total().write_notices, 8 * 7 * 40, "each node learns of 280 pages");
    }

    /// A page a push maps is materialised like any other mapped page: the
    /// notice of a write made after the push invalidates the pushed copy,
    /// and the read after the barrier fetches the write.
    #[test]
    fn a_notice_invalidates_a_pushed_copy() {
        Dsm::run(DsmConfig::new(2).with_cost_model(CostModel::free()), |p| {
            let words = PAGE_SIZE / 4;
            let a = p.alloc_array::<u32>(words);
            if p.proc_id() == 0 {
                p.set(&a, 0, 1);
                p.push_exchange([(1, &[a.range_of(0, 1)][..])], &[]);
                p.set(&a, 0, 2);
            } else {
                p.push_exchange([], &[0]);
                assert_eq!(p.get(&a, 0), 1, "pushed");
            }
            p.barrier();
            assert_eq!(p.get(&a, 0), 2, "P{}", p.proc_id());
        });
    }

    /// So is a page a reduction's install maps: P0's write of another word
    /// of it, in the interval the reduction does not end, invalidates the
    /// copy the reduction gave P1, which then fetches the write.
    #[test]
    fn a_notice_invalidates_a_page_a_reduction_mapped() {
        Dsm::run(DsmConfig::new(2).with_cost_model(CostModel::free()), |p| {
            let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
            let section = a.range_of(0, 2);
            let wants = [vec![section], vec![section]];
            if p.proc_id() == 0 {
                p.set(&a, 100, 7);
            }
            p.reduce_add(section, &[1, 1 + p.proc_id() as u64], &wants);
            p.barrier();
            assert_eq!([p.get(&a, 0), p.get(&a, 1), p.get(&a, 100)], [2, 3, 7]);
        });
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
                let plan = PhasePlan { fetch: x.pages().collect(), ..PhasePlan::default() };
                p.sync_phase(SyncOp::Barrier, &plan, |_| {});
                assert_eq!([p.get(&a, words), p.get(&a, words + 1)], [11, 22]);
            } else {
                p.barrier();
            }
        });
    }
}

#[cfg(test)]
mod oracle {
    //! The missing lists against the eager per-page lists they replaced.
    //!
    //! [`Eager`] keeps the lists as they were before pages were materialised:
    //! every notice extends the list of every page it names, every trim folds
    //! every list, and each reader reads them as it used to. One seeded
    //! sequence of barrier batches, lock grants (records withheld so far among
    //! them) and arrivals (a second child's list repeating the first's), trims
    //! with and without a merged fetch in flight, first touches,
    //! write preparation, installs with bases and deltas and flushes drives a
    //! [`ProtoState`] and its [`PageTable`] next to the model; after every step
    //! each page's missing set, as a reader can tell it, is the model's, and
    //! every reader's answer, tally and page protection is too.

    use std::collections::{BTreeMap, BTreeSet, HashSet};

    use pagedmem::{Addr, AddrRange, Diff, PageId, PageTable, Protection, PAGE_SIZE};

    use super::super::sync::{
        claim_records_locked, claims, prep_writes_locked, wants_for_pages_locked, PhasePlan,
    };
    use super::{apply_notices_locked, sync_vt_locked, NoticeTally};
    use crate::message::{DiffRecord, PageWant};
    use crate::notice::{NoticeLog, NoticeRecord, Segment};
    use crate::state::{lower_below_missing, ProtoState};
    use crate::types::{Interval, ProcId, Vt};

    const NPROCS: usize = 4;
    const ME: ProcId = 1;
    const PAGES: usize = 20;
    const STEPS: u64 = 400;

    /// SplitMix64 finalizer folded over `words` (the benchmark's `rng.rs`): no
    /// generator state, every draw a pure function of its indices.
    fn mix(words: &[u64]) -> u64 {
        let mut h = 0x9e37_79b9_7f4a_7c15_u64;
        for &word in words {
            h = h.wrapping_add(word).wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
        }
        h
    }

    type Missing = Vec<(ProcId, Interval)>;

    /// The eager lists, their own notice log and horizon, and a page table
    /// that sees every invalidation the eager walk made.
    struct Eager {
        lists: BTreeMap<PageId, Missing>,
        log: NoticeLog,
        horizon: Vt,
        table: PageTable,
    }

    impl Eager {
        fn new() -> Eager {
            Eager {
                lists: BTreeMap::new(),
                log: NoticeLog::new(NPROCS),
                horizon: Vt::new(NPROCS),
                table: PageTable::new(),
            }
        }

        /// Every page of `record` gets its entry and loses its valid copy.
        fn record(&mut self, record: &NoticeRecord, invalidated: &mut Vec<PageId>) -> u64 {
            for &page in record.pages.iter() {
                self.lists.entry(page).or_default().push((record.proc, record.interval));
                if self.table.invalidate(page) {
                    invalidated.push(page);
                }
            }
            self.log.record(record.clone());
            record.pages.len() as u64
        }

        fn apply_notices(&mut self, mut records: Vec<NoticeRecord>) -> (u64, u64) {
            records.retain(|r| r.proc != ME);
            records.sort_unstable_by_key(|r| (r.proc, r.interval));
            records.dedup_by_key(|r| (r.proc, r.interval));
            let (mut recorded, mut invalidated) = (0, Vec::new());
            for record in &records {
                if !self.log.contains(record.proc, record.interval) {
                    recorded += self.record(record, &mut invalidated);
                }
            }
            invalidated.sort_unstable();
            (recorded, super::contiguous_runs(&invalidated))
        }

        fn apply_batch(&mut self, vt: &Vt, batch: &[NoticeRecord]) -> (u64, u64) {
            let (mut recorded, mut invalidated) = (0, Vec::new());
            for record in batch {
                if record.proc != ME && record.interval > vt.get(record.proc) {
                    recorded += self.record(record, &mut invalidated);
                }
            }
            invalidated.sort_unstable();
            (recorded, super::contiguous_runs(&invalidated))
        }

        fn trim(&mut self, horizon: &Vt, in_flight: &[PageId]) {
            let found = &self.horizon;
            for (page, missing) in &mut self.lists {
                let fetching = in_flight.binary_search(page).is_ok();
                let fold_at = |proc| {
                    if fetching {
                        found.get(proc)
                    } else {
                        found.get(proc).max(horizon.get(proc))
                    }
                };
                missing.sort_unstable();
                missing.dedup_by(|next, kept| next.0 == kept.0 && next.1 <= fold_at(next.0));
            }
            self.horizon.merge(horizon);
            self.log.trim_covered(&self.horizon);
        }

        fn list(&self, page: PageId) -> &[(ProcId, Interval)] {
            self.lists.get(&page).map_or(&[], Vec::as_slice)
        }

        fn misses(&self, page: PageId) -> bool {
            !self.list(page).is_empty()
        }

        fn sync_vt(&self, vt: &Vt, pages: &[PageId]) -> Vt {
            let mut vt = vt.clone();
            for &page in pages {
                let above = self.list(page).iter().filter(|&&(p, i)| i > self.horizon.get(p));
                lower_below_missing(&mut vt, above);
            }
            vt
        }

        fn wants(&self, pages: &[PageId]) -> BTreeMap<ProcId, Vec<PageWant>> {
            let mut per_proc: BTreeMap<ProcId, Vec<PageWant>> = BTreeMap::new();
            for &page in pages {
                let Some(missing) = self.lists.get(&page) else { continue };
                let mut by_proc: BTreeMap<ProcId, Vec<Interval>> = BTreeMap::new();
                let mut base_from = None::<ProcId>;
                for &(proc, interval) in missing {
                    if interval <= self.horizon.get(proc) {
                        base_from = Some(base_from.map_or(proc, |from| from.min(proc)));
                    } else {
                        by_proc.entry(proc).or_default().push(interval);
                    }
                }
                if let Some(from) = base_from {
                    by_proc.entry(from).or_default();
                }
                for (proc, mut intervals) in by_proc {
                    intervals.sort_unstable();
                    let base = base_from == Some(proc);
                    per_proc.entry(proc).or_default().push(PageWant { page, base, intervals });
                }
            }
            per_proc
        }

        /// Returns the deferred pages and the twins made.
        fn prep(&mut self, plan: &PhasePlan) -> (Vec<PageId>, u64) {
            let (mut deferred, mut twinned) = (Vec::new(), 0);
            let written =
                [(&plan.write_twinned, 0), (&plan.write_all, 1), (&plan.read_write_all, 2)];
            for (ranges, kind) in written {
                for range in ranges {
                    for page in range.pages() {
                        let end = page.base().offset(PAGE_SIZE);
                        let covered = range.start() <= page.base() && end <= range.end();
                        let kind = if covered { kind } else { 0 };
                        if kind == 1 {
                            self.lists.remove(&page);
                        } else if self.lists.contains_key(&page) {
                            deferred.push(page);
                            continue;
                        }
                        twinned += u64::from(self.table.write_enable(page, kind == 0));
                    }
                }
            }
            (deferred, twinned)
        }

        fn claim(&mut self, mut records: Vec<DiffRecord>) -> Vec<DiffRecord> {
            let bases: BTreeMap<PageId, Vt> =
                records.iter().filter_map(|r| Some((r.page, r.base.clone()?))).collect();
            let layer = |r: &DiffRecord| match (&r.base, bases.get(&r.page)) {
                (Some(_), _) => 1,
                (None, Some(vt)) if r.interval > vt.get(r.proc) => 2,
                _ => 0,
            };
            records.sort_by_key(|r| (r.page, layer(r), r.rank, r.proc, r.interval));
            let parked: Vec<PageId> = records
                .chunk_by(|a, b| a.page == b.page)
                .filter(|group| {
                    let owed = self.list(group[0].page).iter();
                    owed.filter(|&&(p, i)| i <= self.horizon.get(p))
                        .any(|&entry| !group.iter().any(|r| claims(r, entry)))
                })
                .map(|group| group[0].page)
                .collect();
            let mut applicable = Vec::new();
            for record in records {
                if parked.contains(&record.page) {
                    continue;
                }
                let Some(missing) = self.lists.get_mut(&record.page) else { continue };
                let before = missing.len();
                missing.retain(|&entry| !claims(&record, entry));
                let claimed = before - missing.len();
                if missing.is_empty() {
                    self.lists.remove(&record.page);
                }
                if claimed > 0 {
                    applicable.push(record);
                }
            }
            applicable
        }

        fn applied_vt(&self, vt: &Vt) -> Vt {
            let mut vt = vt.clone();
            for (&page, missing) in &self.lists {
                if self.table.is_mapped(page) {
                    lower_below_missing(&mut vt, missing);
                }
            }
            vt
        }
    }

    /// The table half of an install: the claimed records land, and every
    /// requested or touched page is revalidated unless it still misses a diff.
    fn install_table(
        table: &mut PageTable,
        applicable: &[DiffRecord],
        pages: &[PageId],
        misses: impl Fn(PageId) -> bool,
    ) {
        table.apply_diff_batch(applicable.iter().map(|r| (r.page, &r.diff))).expect("page-sized");
        let mut revalidate: Vec<PageId> = pages.to_vec();
        revalidate.extend(applicable.iter().map(|r| r.page));
        revalidate.sort_unstable();
        revalidate.dedup();
        for page in revalidate {
            if misses(page) {
                if table.is_mapped(page) {
                    table.set_protection(page, Protection::Invalid);
                }
                continue;
            }
            let dirty = table.frame(page).map(|f| f.lock().dirty).unwrap_or(false);
            match table.protection(page) {
                Protection::Unmapped => drop(table.map_zeroed(page, Protection::ReadOnly)),
                _ if dirty => table.set_protection(page, Protection::ReadWrite),
                _ => table.set_protection(page, Protection::ReadOnly),
            }
        }
    }

    /// The records answering `wants`: a base where one is wanted (covering
    /// everything the node knows), a delta per wanted interval, a fifth of them
    /// whole pages.
    fn answers(wants: &BTreeMap<ProcId, Vec<PageWant>>, vt: &Vt, draw: u64) -> Vec<DiffRecord> {
        let mut records = Vec::new();
        for (&proc, wants) in wants {
            for want in wants {
                let mut page = [0u8; PAGE_SIZE];
                let mut record = |interval: Interval, base: Option<Vt>, whole: bool| {
                    page[4 * proc..4 * proc + 4].copy_from_slice(&interval.to_le_bytes());
                    let diff = if whole || base.is_some() {
                        Diff::full_page(&page)
                    } else {
                        Diff::create(&[0u8; PAGE_SIZE], &page)
                    };
                    let rank = u64::from(interval) * NPROCS as u64 + proc as u64;
                    records.push(DiffRecord {
                        page: want.page,
                        proc,
                        interval,
                        rank,
                        base,
                        diff,
                        vt: None,
                    });
                };
                if want.base {
                    record(vt.get(proc), Some(vt.clone()), true);
                }
                for &interval in &want.intervals {
                    record(
                        interval,
                        None,
                        mix(&[draw, want.page.0 as u64, u64::from(interval)]).is_multiple_of(5),
                    );
                }
            }
        }
        records
    }

    /// What a reader can tell apart in an install's records.
    fn keys(records: &[DiffRecord]) -> Vec<(PageId, ProcId, Interval, bool)> {
        records.iter().map(|r| (r.page, r.proc, r.interval, r.base.is_some())).collect()
    }

    fn tally(tally: &NoticeTally) -> (u64, u64) {
        (tally.recorded, tally.invalidation_runs)
    }

    /// Up to `most` distinct pages, ascending.
    fn some_pages(draw: impl Fn(u64) -> u64, most: u64) -> Vec<PageId> {
        let mut pages: Vec<PageId> = (0..1 + draw(0) % most)
            .map(|k| PageId((draw(1 + k) % PAGES as u64) as usize))
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// A barrier's merged fetch, from its issue to its install.
    struct InFlight {
        pages: Vec<PageId>,
        /// The timestamp its request advertised.
        advertised: Vt,
        /// What the producers answer at the departure: every interval above
        /// the advertised one of every record naming a page.
        answers: Option<Vec<DiffRecord>>,
    }

    /// One node and the model, driven in step.
    struct Stepper {
        seed: u64,
        proto: ProtoState,
        table: PageTable,
        eager: Eager,
        /// Each writer's latest interval.
        latest: [Interval; NPROCS],
        /// Each writer's records not sent to the node yet, oldest first: a
        /// suffix of its intervals, as a node learns a writer's intervals
        /// as a prefix.
        withheld: Vec<NoticeRecord>,
        /// A barrier's merged fetch, issued and not installed yet.
        in_flight: Option<InFlight>,
        /// Every page something read, requested, prepared or installed.
        asked: BTreeSet<PageId>,
    }

    impl Stepper {
        fn new(seed: u64) -> Stepper {
            Stepper {
                seed,
                proto: ProtoState::new(ME, NPROCS),
                table: PageTable::new(),
                eager: Eager::new(),
                latest: [0; NPROCS],
                withheld: Vec::new(),
                in_flight: None,
                asked: BTreeSet::new(),
            }
        }

        /// A new record of a writer other than this node, sent with every
        /// record of the writer withheld so far; now and then it is withheld
        /// too, and a later grant sends it.
        fn fresh_records(&mut self, draw: impl Fn(u64) -> u64) -> Vec<NoticeRecord> {
            let proc = (ME + 1 + (draw(0) % (NPROCS as u64 - 1)) as usize) % NPROCS;
            let pages: std::sync::Arc<[PageId]> = some_pages(|k| draw(10 + k), 5).into();
            self.latest[proc] += 1;
            self.withheld.push(NoticeRecord { proc, interval: self.latest[proc], pages });
            if draw(1).is_multiple_of(4) {
                return Vec::new();
            }
            self.release(proc, Interval::MAX)
        }

        /// The withheld records of `proc` up to `interval`, no longer held
        /// back.
        fn release(&mut self, proc: ProcId, interval: Interval) -> Vec<NoticeRecord> {
            let (sent, kept) = std::mem::take(&mut self.withheld)
                .into_iter()
                .partition(|r| r.proc == proc && r.interval <= interval);
            self.withheld = kept;
            sent
        }

        /// Some records the node already holds, its own among them.
        fn known(&self, draw: impl Fn(u64) -> u64) -> Vec<NoticeRecord> {
            let held = self.proto.notice_log.records_after(&self.proto.gc_horizon);
            held.enumerate()
                .filter(|&(k, _)| draw(k as u64).is_multiple_of(3))
                .map(|(_, r)| r.clone())
                .collect()
        }

        /// A barrier departure's batch: records the node holds and new ones.
        fn batch(&mut self, draw: impl Fn(u64) -> u64) {
            let mut batch = self.known(|k| draw(100 + k));
            for k in 0..1 + draw(1) % 3 {
                batch.extend(self.fresh_records(|j| draw(200 + 20 * k + j)));
            }
            batch.sort_by_key(|r| (r.proc, r.interval));
            let batch: std::sync::Arc<[NoticeRecord]> = batch.into();
            let vt = self.proto.vt.clone();
            let shared = Segment::Shared(batch.clone());
            let real = apply_notices_locked(&mut self.proto, &mut self.table, [shared]);
            assert_eq!(tally(&real), self.eager.apply_batch(&vt, &batch), "batch tally");
        }

        /// A trim at a horizon that is monotone, within what the node knows,
        /// and below every record still on its way: a horizon only passes
        /// intervals every node holds.
        fn trim(&mut self, draw: impl Fn(u64) -> u64, in_flight: &[PageId]) {
            let mut horizon = self.proto.gc_horizon.clone();
            for proc in 0..NPROCS {
                let withheld = self.withheld.iter().filter(|r| r.proc == proc);
                let cap = withheld.map(|r| r.interval - 1).min().unwrap_or(Interval::MAX);
                let (low, high) = (horizon.get(proc), self.proto.vt.get(proc).min(cap));
                if high > low {
                    let up = draw(proc as u64) % u64::from(high - low + 1);
                    horizon.advance(proc, low + up as Interval);
                }
            }
            self.proto.gc_trim(&horizon, in_flight);
            self.eager.trim(&horizon, in_flight);
        }

        fn step(&mut self, step: u64) {
            let seed = self.seed;
            let draw = move |k: u64| mix(&[seed, step, k]);
            match draw(0) % 13 {
                0..=2 => self.batch(draw),
                // A grant, or an arrival whose second child repeats some of
                // the first's records.
                3 | 4 => {
                    let mut grant = self.known(|k| draw(100 + k));
                    if draw(1) % 2 == 0 {
                        grant.extend(self.fresh_records(|j| draw(200 + j)));
                    }
                    if !self.withheld.is_empty() {
                        let upto = &self.withheld[(draw(2) % self.withheld.len() as u64) as usize];
                        let (proc, interval) = (upto.proc, upto.interval);
                        grant.extend(self.release(proc, interval));
                    }
                    grant.sort_by_key(|r| (r.proc, r.interval));
                    let mut segments = vec![grant.clone()];
                    if draw(0) % 13 == 3 {
                        let repeats = grant
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| draw(300 + *k as u64).is_multiple_of(2));
                        segments.push(repeats.map(|(_, r)| r.clone()).collect());
                    }
                    let owned = segments.iter().cloned().map(Segment::Owned);
                    let real = apply_notices_locked(&mut self.proto, &mut self.table, owned);
                    let flattened = segments.into_iter().flatten().collect();
                    assert_eq!(tally(&real), self.eager.apply_notices(flattened), "grant tally");
                }
                5 | 6 => self.trim(|k| draw(1 + k), &[]),
                7 if self.in_flight.is_none() => {
                    let pages = some_pages(|k| draw(10 + k), 4);
                    self.asked.extend(&pages);
                    let expected = self.eager.sync_vt(&self.proto.vt, &pages);
                    let advertised = sync_vt_locked(&mut self.proto, &pages);
                    assert_eq!(advertised, expected, "merged fetch of {pages:?}");
                    self.in_flight = Some(InFlight { pages, advertised, answers: None });
                }
                7 | 8 => match self.in_flight.take() {
                    // The departure: its batch, the answers served from the
                    // log as it stands, and the trim that passes them.
                    Some(InFlight { pages, advertised, answers: None }) => {
                        self.batch(|k| draw(1000 + k));
                        let mut wants: BTreeMap<ProcId, Vec<PageWant>> = BTreeMap::new();
                        for record in self.proto.notice_log.records_after(&advertised) {
                            for &page in pages.iter().filter(|page| record.pages.contains(page)) {
                                if record.proc != ME {
                                    let intervals = vec![record.interval];
                                    let want = PageWant { page, base: false, intervals };
                                    wants.entry(record.proc).or_default().push(want);
                                }
                            }
                        }
                        let answers = Some(answers(&wants, &self.proto.vt, draw(1)));
                        self.trim(|k| draw(2000 + k), &pages);
                        self.in_flight = Some(InFlight { pages, advertised, answers });
                    }
                    Some(InFlight { pages, answers: Some(answers), .. }) => {
                        self.install(&pages, answers);
                    }
                    None => {}
                },
                9 => {
                    let page = PageId((draw(1) % PAGES as u64) as usize);
                    self.asked.insert(page);
                    let wants = wants_for_pages_locked(&mut self.proto, &[page], &HashSet::new());
                    assert_eq!(wants, self.eager.wants(&[page]), "first touch of {page:?}");
                    let answers = answers(&wants, &self.proto.vt, draw(2));
                    self.install(&[page], answers);
                    if draw(3) % 2 == 0 && !self.eager.misses(page) {
                        assert_eq!(
                            self.table.write_enable(page, true),
                            self.eager.table.write_enable(page, true)
                        );
                    }
                }
                10 => {
                    let range = |k: u64| {
                        let page = PageId((draw(20 + k) % PAGES as u64) as usize);
                        let pages = 1 + (draw(30 + k) % 2) as usize;
                        let skip = if draw(40 + k) % 3 == 0 { 8 } else { 0 };
                        let len =
                            (pages * PAGE_SIZE - skip).min((PAGES - page.0) * PAGE_SIZE - skip);
                        AddrRange::new(Addr::new(page.base().as_usize() + skip), len)
                    };
                    let ranges =
                        |k: u64| (0..draw(50 + k) % 3).map(|j| range(10 * k + j)).collect();
                    let plan = PhasePlan {
                        write_twinned: ranges(0),
                        write_all: ranges(1),
                        read_write_all: ranges(2),
                        ..PhasePlan::default()
                    };
                    let written = [&plan.write_twinned, &plan.write_all, &plan.read_write_all];
                    self.asked.extend(written.into_iter().flatten().flat_map(AddrRange::pages));
                    let mut deferred = Vec::new();
                    let real =
                        prep_writes_locked(&mut self.proto, &mut self.table, &plan, &mut deferred);
                    let deferred: Vec<PageId> = deferred.iter().map(|d| d.page).collect();
                    assert_eq!((deferred, real.twinned), self.eager.prep(&plan), "{plan:?}");
                }
                11 => {
                    let dirty = self.table.dirty_pages();
                    assert_eq!(dirty, self.eager.table.dirty_pages());
                    if dirty.is_empty() {
                        return;
                    }
                    for &page in &dirty {
                        self.table.write_protect(page);
                        self.eager.table.write_protect(page);
                    }
                    let interval = self.proto.open_interval();
                    let record = NoticeRecord { proc: ME, interval, pages: dirty.into() };
                    self.proto.notice_log.record(record.clone());
                    self.eager.log.record(record);
                    self.proto.vt.advance(ME, interval);
                }
                _ => {
                    let expected = self.eager.applied_vt(&self.proto.vt);
                    let mut applied = Vt::default();
                    self.proto.applied_vt(&self.table, &mut applied);
                    assert_eq!(applied, expected, "applied timestamp");
                    for page in (0..PAGES).map(PageId).filter(|&page| self.table.is_mapped(page)) {
                        let mut expected = self.proto.vt.clone();
                        lower_below_missing(&mut expected, self.eager.list(page));
                        assert_eq!(self.proto.page_vt(page), expected, "{page:?}'s timestamp");
                    }
                }
            }
        }

        fn install(&mut self, pages: &[PageId], records: Vec<DiffRecord>) {
            let real = claim_records_locked(&mut self.proto, records.clone(), pages);
            let expected = self.eager.claim(records);
            assert_eq!(keys(&real), keys(&expected), "install on {pages:?}");
            install_table(&mut self.table, &real, pages, |page| {
                !self.proto.missing(page).is_empty()
            });
            let eager = &mut self.eager;
            install_table(&mut eager.table, &expected, pages, |page| {
                eager.lists.get(&page).is_some_and(|missing| !missing.is_empty())
            });
        }

        /// Every page's missing set as a reader can tell it, the page's
        /// protection and the node's materialised pages.
        fn check(&self, step: u64) {
            let proto = &self.proto;
            assert_eq!(proto.gc_horizon, self.eager.horizon);
            for page in (0..PAGES).map(PageId) {
                let at = format!("seed {}, step {step}, {page:?}", self.seed);
                let missing = proto.effective(&proto.missing_of(page));
                assert_eq!(missing, proto.effective(self.eager.list(page)), "{at}");
                assert_eq!(self.table.protection(page), self.eager.table.protection(page), "{at}");
                if self.table.is_mapped(page) {
                    assert!(proto.is_materialised(page), "{at}: mapped, not materialised");
                }
                if !self.asked.contains(&page) {
                    assert!(!proto.is_materialised(page), "{at}: never asked for, materialised");
                    assert!(proto.missing(page).is_empty(), "{at}: never asked for, a list");
                }
            }
        }
    }

    #[test]
    fn the_missing_lists_read_as_the_eager_per_page_lists() {
        let mut steps = [0u64; 13];
        for seed in 0..24 {
            let mut stepper = Stepper::new(seed);
            for step in 0..STEPS {
                steps[(mix(&[seed, step, 0]) % 13) as usize] += 1;
                stepper.step(step);
                stepper.check(step);
            }
        }
        assert!(steps.iter().all(|&n| n > 0), "every kind of step ran: {steps:?}");
    }
}
