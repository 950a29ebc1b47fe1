//! The race detector's hooks: the passes run where diffs are installed and
//! where pushed bytes land, under locks the protocol already holds.

use pagedmem::{AddrRange, PageId, PageTable, PAGE_SIZE};
use racecheck::{overlap, RaceAccess, RaceLog, RaceReport, SyncKind};
use sp2model::SharedStats;

use crate::message::DiffRecord;
use crate::state::{DiffEntry, ProtoState};
use crate::types::{ProcId, Vt};

/// One side of a potential race: who wrote, and which words of the page
/// (sorted half-open byte ranges).
type Write<'a> = (RaceAccess, &'a [(u32, u32)]);

fn full_page() -> Vec<(u32, u32)> {
    vec![(0, PAGE_SIZE as u32)]
}

/// Where one detection pass reports to, and what it stamps on each report.
struct Reporter<'a> {
    stats: &'a SharedStats,
    log: &'a RaceLog,
    observer: ProcId,
    sync_kind: SyncKind,
}

impl Reporter<'_> {
    /// Counts and logs a race on `page` between two writes (panicking the
    /// run in fail-fast mode, via [`RaceLog::record`]) if their word sets
    /// overlap.
    fn check(&self, page: PageId, a: Write<'_>, b: Write<'_>) {
        let words = overlap(a.1, b.1);
        if !words.is_empty() {
            self.stats.races_detected(1);
            self.log.record(RaceReport::new(page, words, a.0, b.0, self.observer, self.sync_kind));
        }
    }
}

/// The words the open interval has written on `page` so far: the twin
/// delta, or the whole page if it is dirty without a twin (`WRITE_ALL`).
/// `None` when the page is clean.
fn open_interval_writes(table: &PageTable, page: PageId) -> Option<Vec<(u32, u32)>> {
    if !table.frame(page).is_ok_and(|f| f.dirty) {
        return None;
    }
    match table.create_diff(page) {
        Some(diff) => Some(diff.modified_ranges()),
        None => Some(full_page()),
    }
}

/// The race detector's apply-point pass, run under the already-held
/// proto+table lock pair and *before* the claimed batch is applied
/// (applying updates the twins the local unflushed write set is read from),
/// so detection adds **zero** lock acquisitions.
///
/// Two interval writes race exactly when their creating vector timestamps
/// are [concurrent](Vt::concurrent) and their word-write sets overlap — the
/// multiple-writer protocol makes legitimate concurrent diffs word-disjoint,
/// so overlap is the precise false-sharing/race discriminator. Each incoming
/// record is compared against (a) the other incoming records of the batch
/// (so a reader that never wrote still observes a producer/producer race),
/// (b) this node's own cached interval diffs and (c) its unflushed twin
/// delta, whose creating timestamp is the current one advanced into the open
/// interval (`race_vt` overrides the base for the lock path, which merges
/// the granter's timestamp before installing).
///
/// Applications involving garbage-collected history are undecidable rather
/// than safe: a base keeps no creating timestamps for the history it folds,
/// so one landing on local writes that the horizon does not order after
/// that history is counted as `races_window_trimmed` instead of silently
/// ignored.
pub(super) fn detect_races_locked(
    stats: &SharedStats,
    log: &RaceLog,
    proto: &ProtoState,
    table: &PageTable,
    applicable: &[DiffRecord],
    sync_kind: SyncKind,
    race_vt: Option<&Vt>,
) {
    let me = proto.me;
    let reporter = Reporter { stats, log, observer: me, sync_kind };
    // Creating timestamp attributed to the open interval's unflushed
    // writes: the caller's pre-acquire snapshot when one rides the pending
    // sync (the grant path), else the snapshot retained since the open
    // interval's first acquire (a later demand fetch — the merged current
    // timestamp would wrongly order pre-acquire writes after the granter's
    // history), else the timestamp the interval would flush with now.
    let local_vt = {
        let mut vt =
            race_vt.or(proto.acquire_race_vt.as_ref()).cloned().unwrap_or_else(|| proto.vt.clone());
        vt.advance(me, proto.open_interval());
        vt
    };
    for (idx, record) in applicable.iter().enumerate() {
        if record.base.is_some() {
            // A base stands in for the missing entries at or below the GC
            // horizon, whose creating timestamps are gone; the entries
            // above it that its timestamp covers travel, and are checked,
            // as deltas. The horizon is the minimum of every node's
            // *applied* timestamp, and an unapplied racing interval on a
            // mapped frame pins it (see `ProtoState::applied_vt`), so this
            // node's view covers the horizon and orders all local writes
            // after the folded history: decidably race-free. The counter
            // guards that invariant — a horizon *not* covered by the local
            // view, landing where local write evidence exists, is an
            // undecidable window and is counted rather than silently
            // dropped.
            if !local_vt.covers(&proto.gc_horizon) {
                let local_partner = proto.cached_after(record.page, 0).is_some()
                    || proto.trimmed(record.page)
                    || table.has_twin(record.page);
                if local_partner {
                    stats.races_window_trimmed(1);
                }
            }
            continue;
        }
        let Some(vq) = &record.vt else { continue };
        let incoming = record.diff.modified_ranges();
        if incoming.is_empty() {
            continue;
        }
        let theirs: Write<'_> =
            (RaceAccess { proc: record.proc, interval: record.interval }, &incoming);
        // (a) Against the later incoming records of the same batch.
        for other in &applicable[idx + 1..] {
            if other.page != record.page || other.base.is_some() {
                continue;
            }
            let Some(vo) = &other.vt else { continue };
            if vq.concurrent(vo) {
                let other_words = other.diff.modified_ranges();
                let other_access = RaceAccess { proc: other.proc, interval: other.interval };
                reporter.check(record.page, theirs, (other_access, &other_words));
            }
        }
        // An incoming diff whose creator had not seen this node's own
        // *trimmed* intervals needs no check here: a local interval folds
        // only once every node has applied it, and whichever node created
        // this record checked it against that interval — still live in its
        // cache, pinned by this node's then-unapplied state — when the
        // interval arrived there. The symmetric comparison already ran.
        //
        // (b) Against this node's own cached interval diffs.
        for (interval, cached) in proto.cached_after(record.page, 0).into_iter().flatten() {
            let Some(vm) = &cached.vt else { continue };
            if vm.concurrent(vq) {
                let own = match &cached.entry {
                    DiffEntry::Delta(delta) => delta.diff().modified_ranges(),
                    DiffEntry::FullPage => full_page(),
                };
                reporter.check(record.page, (RaceAccess { proc: me, interval }, &own), theirs);
            }
        }
        // (c) Against the unflushed writes of the open interval.
        if !local_vt.concurrent(vq) {
            continue;
        }
        if let Some(local) = open_interval_writes(table, record.page) {
            let mine = RaceAccess { proc: me, interval: proto.open_interval() };
            reporter.check(record.page, (mine, &local), theirs);
        }
    }
}

/// The race detector's pass over a push install, under the held proto+table
/// lock pair and before the raw bytes land.
///
/// A push carries no consistency metadata at all — the compiler's
/// section analysis is the proof that the pushed region and every
/// receiver-side write are disjoint. The detector checks exactly that
/// proof obligation: pushed bytes overlapping this node's unflushed twin
/// delta (or a page it claimed as `WRITE_ALL`) are a race between the
/// sender's current interval and the receiver's open one. Pushes name no
/// interval on the wire, so the sender side of the report carries
/// interval 0.
pub(super) fn detect_push_races_locked(
    stats: &SharedStats,
    log: &RaceLog,
    proto: &ProtoState,
    table: &PageTable,
    received: &[(ProcId, AddrRange, Vec<u8>)],
) {
    let me = proto.me;
    let reporter = Reporter { stats, log, observer: me, sync_kind: SyncKind::Push };
    for &(from, range, _) in received {
        for (page, run, _) in range.page_runs() {
            let Some(local) = open_interval_writes(table, page) else { continue };
            let pushed = vec![(run.start as u32, run.end as u32)];
            let mine = RaceAccess { proc: me, interval: proto.open_interval() };
            reporter.check(page, (mine, &local), (RaceAccess { proc: from, interval: 0 }, &pushed));
        }
    }
}
