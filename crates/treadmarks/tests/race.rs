//! On-the-fly data-race detection tests.
//!
//! The detector compares incoming word-write sets against concurrent local
//! history at every point where remote modifications are applied. These
//! tests pin the oracle from both sides:
//!
//! * **Soundness on the accept side** — programs whose sharing is legal
//!   under the protocol (word-disjoint concurrent writers, lock-ordered
//!   updates) run report-free;
//! * **Completeness on the refusal side** — same-word concurrent writes
//!   are reported with the offending page, processor pair and word range,
//!   at the barrier, lock-grant and fault-fetch apply points;
//! * **The GC window** — a pinned race survives any number of collection
//!   epochs and is still reported, while an undecidable application against
//!   trimmed history is *counted* (`races_window_trimmed`), never silently
//!   dropped;
//! * **Determinism** — the drained report list is byte-identical across
//!   repeated runs.

use pagedmem::{AddrRange, PageId, PAGE_SIZE};
use sp2model::CostModel;
use treadmarks::{
    Dsm, DsmConfig, DsmRun, LockId, PhasePlan, Process, RaceDetect, SharedArray, SyncKind, SyncOp,
};

const ELEMS: usize = PAGE_SIZE / 8;

fn detecting(n: usize) -> DsmConfig {
    DsmConfig::new(n).with_cost_model(CostModel::free()).with_race_detect(RaceDetect::Collect)
}

/// The plan that twins and write-enables `range` without a fault.
fn write_twinned(range: AddrRange) -> PhasePlan {
    PhasePlan { write_twinned: vec![range], ..PhasePlan::default() }
}

fn first_page(a: &SharedArray<u64>) -> PageId {
    a.full_range().pages().next().expect("array spans at least one page")
}

#[test]
fn same_word_barrier_epoch_race_is_reported() {
    let run = Dsm::run(detecting(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS);
        // Both processors write the same four words with no ordering
        // between them — the textbook barrier-epoch race.
        for i in 0..4 {
            p.set(&a, i, (100 + 10 * p.proc_id() + i) as u64);
        }
        p.barrier();
        (p.get(&a, 0), first_page(&a))
    });
    let page = run.results[0].1;
    assert_eq!(run.races.len(), 1, "one deduplicated report: {:?}", run.races);
    let report = &run.races[0];
    assert_eq!(report.page, page, "the report names the racy page");
    assert_eq!((report.first.proc, report.second.proc), (0, 1));
    assert_eq!(report.sync, SyncKind::Fetch, "detected when the fault-fetch applies the diff");
    assert!(!report.words.is_empty(), "the overlapping word range is named");
    let width: u32 = report.words.iter().map(|(s, e)| e - s).sum();
    assert!(width >= 4 * 4, "all four modified 4-byte words overlap: {:?}", report.words);
    assert!(run.stats.total().races_detected >= 1);
}

#[test]
fn word_disjoint_concurrent_writers_are_not_reported() {
    // The multiple-writer protocol's legitimate concurrency: both
    // processors write the same page but disjoint words. Concurrent
    // intervals, empty overlap — not a race.
    let run = Dsm::run(detecting(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS);
        let half = ELEMS / 2;
        let base = p.proc_id() * half;
        for i in 0..half {
            p.set(&a, base + i, (base + i) as u64);
        }
        p.barrier();
        let other = (1 - p.proc_id()) * half;
        (0..half).map(|i| p.get(&a, other + i)).sum::<u64>()
    });
    assert!(run.races.is_empty(), "false sharing is not a race: {:?}", run.races);
    assert_eq!(run.stats.total().races_detected, 0);
}

#[test]
fn lock_ordered_updates_are_not_reported() {
    // Same words, but every write ordered by the lock's happens-before
    // edges: each acquirer's interval covers the previous holder's.
    const LOCK: LockId = 2;
    let run = Dsm::run(detecting(3), |p| {
        let a = p.alloc_array::<u64>(1);
        for turn in 0..p.nprocs() {
            if p.proc_id() == turn {
                p.lock_acquire(LOCK);
                let v = p.get(&a, 0);
                p.set(&a, 0, v + 1);
                p.lock_release(LOCK);
            }
            p.barrier();
        }
        p.get(&a, 0)
    });
    assert_eq!(run.results, vec![3, 3, 3]);
    assert!(run.races.is_empty(), "lock-ordered writes are not a race: {:?}", run.races);
}

#[test]
fn unsynchronized_write_before_an_acquire_is_reported_at_the_grant() {
    // Processor 1 writes the word *before* acquiring the lock that
    // processor 0 writes it under: the pre-acquire write is concurrent
    // with processor 0's interval even though the acquire itself orders
    // everything that follows. The pre-merge timestamp snapshot carried by
    // the pending sync is what keeps this detectable at the grant.
    //
    // Processor 0 takes the lock *before* the leading barrier, so processor
    // 1's request is ordered after that acquire whatever the host does — it
    // queues behind the held lock (or finds it just released) and the grant
    // always carries the releaser's diff; the two post-barrier writes are
    // still concurrent.
    const LOCK: LockId = 0;
    let run = Dsm::run(detecting(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS);
        if p.proc_id() == 0 {
            p.lock_acquire(LOCK);
        }
        p.barrier();
        if p.proc_id() == 0 {
            p.set(&a, 1, 41);
            p.lock_release(LOCK);
        } else {
            p.set(&a, 1, 7); // unsynchronized: the race
            p.fetch_diffs_w_sync(SyncOp::Lock(LOCK), &a.full_range().pages().collect::<Vec<_>>());
            p.lock_release(LOCK);
        }
        p.barrier();
        first_page(&a)
    });
    assert_eq!(run.races.len(), 1, "reports: {:?}", run.races);
    let report = &run.races[0];
    assert_eq!(report.page, run.results[0]);
    assert_eq!((report.first.proc, report.second.proc), (0, 1));
    assert_eq!(report.sync, SyncKind::LockGrant);
    assert_eq!(report.detected_by, 1, "the acquirer observes the race");
}

#[test]
fn unsynchronized_write_before_an_acquire_is_reported_on_a_later_demand_fetch() {
    // Same race as above, but the acquire is a *plain* `lock_acquire`
    // carrying no sync pages: the grant piggybacks nothing, and the
    // releaser's diff arrives only when the acquirer faults on the page
    // afterwards. By then the grant has merged the granter's timestamp, so
    // the open interval's *current* timestamp covers the releaser's
    // interval — only the retained pre-acquire snapshot keeps the
    // unflushed pre-acquire write visible as concurrent on the demand
    // fetch. As above, processor 0 holds the lock across the leading
    // barrier, so its critical section always precedes processor 1's.
    const LOCK: LockId = 0;
    let run = Dsm::run(detecting(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS);
        if p.proc_id() == 0 {
            p.lock_acquire(LOCK);
        }
        p.barrier();
        if p.proc_id() == 0 {
            p.set(&a, 1, 41);
            p.lock_release(LOCK);
        } else {
            p.set(&a, 1, 7); // unsynchronized: the race
            p.lock_acquire(LOCK); // no sync pages: nothing piggybacks
            let _ = p.get(&a, 1); // demand fetch pulls the releaser's diff
            p.lock_release(LOCK);
        }
        p.barrier();
        first_page(&a)
    });
    assert_eq!(run.races.len(), 1, "reports: {:?}", run.races);
    let report = &run.races[0];
    assert_eq!(report.page, run.results[0]);
    assert_eq!((report.first.proc, report.second.proc), (0, 1));
    assert_eq!(report.sync, SyncKind::Fetch, "the race surfaces on the demand fetch");
    assert_eq!(report.detected_by, 1, "the acquirer observes the race");
}

#[test]
#[should_panic(expected = "data race detected")]
fn fail_fast_mode_panics_on_the_first_report() {
    let config =
        DsmConfig::new(2).with_cost_model(CostModel::free()).with_race_detect(RaceDetect::FailFast);
    let _ = Dsm::run(config, |p| {
        let a = p.alloc_array::<u64>(ELEMS);
        p.set(&a, 0, 1 + p.proc_id() as u64);
        p.barrier();
        p.get(&a, 0)
    });
}

#[test]
fn detector_off_produces_no_reports_and_no_extra_traffic() {
    // The same racy program with the detector off: no reports, and the
    // wire-byte count must be identical to a detector-less build (the
    // creating timestamps are only shipped when detection is on).
    let racy = |p: &mut Process| {
        let a = p.alloc_array::<u64>(ELEMS);
        p.set(&a, 0, 1 + p.proc_id() as u64);
        p.barrier();
        p.get(&a, 0)
    };
    let off = Dsm::run(DsmConfig::new(2).with_cost_model(CostModel::free()), racy);
    let on = Dsm::run(detecting(2), racy);
    assert!(off.races.is_empty());
    assert!(!on.races.is_empty());
    assert!(
        off.stats.total().bytes_sent < on.stats.total().bytes_sent,
        "detection ships creating timestamps; off must not"
    );
}

/// Satellite: repeated runs of a multi-pair racy program must drain a
/// byte-identical report list — canonical `(page, first, second, words)`
/// ordering with symmetric observations deduplicated, independent of
/// thread scheduling.
#[test]
fn report_lists_are_byte_deterministic_across_runs() {
    fn racy_run() -> DsmRun<u64> {
        Dsm::run(
            DsmConfig::new(4)
                .with_cost_model(CostModel::sp2())
                .with_race_detect(RaceDetect::Collect),
            |p| {
                let a = p.alloc_array::<u64>(4 * ELEMS);
                // Every processor writes a shared header on two pages plus
                // a private tail: several concurrent racing pairs at once.
                for page in 0..2 {
                    for i in 0..3 {
                        p.set(&a, page * ELEMS + i, (p.proc_id() * 7 + i) as u64);
                    }
                }
                p.barrier();
                (0..2).map(|page| p.get(&a, page * ELEMS)).sum()
            },
        )
    }
    let render = |run: &DsmRun<u64>| {
        run.races.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    };
    let first = racy_run();
    assert!(first.races.len() >= 2, "several pairs race: {:?}", first.races);
    let expect = render(&first);
    for _ in 0..2 {
        assert_eq!(render(&racy_run()), expect, "report bytes must not depend on scheduling");
    }
}

/// Unrelated collectable traffic (copied from the GC tests): every
/// processor rewrites its own scratch page and the next processor applies
/// it, so the horizon advances and trims between epochs.
fn scratch_epoch(p: &mut Process, scratch: &SharedArray<u64>, epoch: usize) {
    let n = p.nprocs();
    let me = p.proc_id();
    for i in (0..ELEMS).step_by(32) {
        p.set(scratch, me * ELEMS + i, (epoch * 17 + i) as u64);
    }
    p.barrier();
    let prev = (me + n - 1) % n;
    let mut sink = 0u64;
    for i in (0..ELEMS).step_by(32) {
        sink = sink.wrapping_add(p.get(scratch, prev * ELEMS + i));
    }
    std::hint::black_box(sink);
    p.barrier();
}

/// Satellite (adversarial GC): a *detectable* race is never trimmed. The
/// applied-timestamp horizon pins any interval still unapplied at a mapped
/// frame — both racing writers hold each other's notice unapplied — so the
/// epoch-0 racing diffs survive eight collection epochs (while the scratch
/// history around them is trimmed) and the race is still reported when the
/// page is finally read.
#[test]
fn pinned_race_survives_gc_epochs_and_is_still_reported() {
    const EPOCHS: usize = 8;
    let run = Dsm::run(detecting(4), |p| {
        let me = p.proc_id();
        let a = p.alloc_array::<u64>(ELEMS);
        let scratch = p.alloc_array::<u64>(p.nprocs() * ELEMS);
        if me == 0 || me == 3 {
            for i in 0..4 {
                p.set(&a, i, (100 * me + i) as u64); // the epoch-0 race
            }
        }
        p.barrier();
        for epoch in 0..EPOCHS {
            scratch_epoch(p, &scratch, epoch);
        }
        if me == 3 {
            p.get(&a, 0)
        } else {
            0
        }
    });
    assert!(run.stats.total().gc_trimmed_diffs > 0, "the scratch history must have been trimmed");
    assert_eq!(run.races.len(), 1, "the pinned race is still reported: {:?}", run.races);
    assert_eq!((run.races[0].first.proc, run.races[0].second.proc), (0, 3));
    assert_eq!(run.stats.total().races_window_trimmed, 0, "nothing detectable was folded");
}

/// Satellite (adversarial GC, undecidable side): a processor that never
/// mapped the page fetches *after* the producer's history was folded into
/// a consolidated base, while holding unflushed local writes on that page.
/// The base has no creating timestamps to compare against, so the detector
/// counts `races_window_trimmed` instead of silently reporting nothing.
#[test]
fn base_application_against_local_writes_is_decidable_and_not_misreported() {
    // The adversarial GC scenario: a producer's history is folded into its
    // consolidated base, and a late writer applies that base onto a page
    // it has unsynchronized local writes on. The GC horizon is the minimum
    // of every node's *applied* timestamp, so the fold is necessarily
    // covered by the consumer's view — its local writes happen-after the
    // folded history and the application is *decidably* race-free: no
    // report, and no `races_window_trimmed` count (the counter fires only
    // if that invariant is ever violated, so a base can never silently
    // swallow a detectable race — see the companion test above for the
    // other half, where a real race pins the horizon and stays reported).
    const EPOCHS: usize = 8;
    let run = Dsm::run(detecting(4), |p| {
        let me = p.proc_id();
        let a = p.alloc_array::<u64>(ELEMS);
        let scratch = p.alloc_array::<u64>(p.nprocs() * ELEMS);
        if me == 0 {
            for i in 0..4 {
                p.set(&a, i, 500 + i as u64);
            }
        }
        p.barrier();
        // Nobody else maps the racy page, so processor 0's component of the
        // horizon advances and its history folds into the trimmed base.
        for epoch in 0..EPOCHS {
            scratch_epoch(p, &scratch, epoch);
        }
        if me == 3 {
            // Unsynchronized write-first access: twin the stale (never
            // fetched) contents, write, *then* pull the producer's history.
            p.prepare_phase(&write_twinned(a.range_of(0, 8)));
            for i in 0..4 {
                p.set(&a, i, 900 + i as u64);
            }
            p.fetch_diffs(&a.full_range().pages().collect::<Vec<_>>());
        }
        p.barrier();
        0u64
    });
    assert!(run.stats.total().gc_trimmed_diffs > 0, "the producer's history must have been folded");
    assert!(
        run.races.is_empty(),
        "a VT-covered base application must not be misreported: {:?}",
        run.races
    );
    assert_eq!(
        run.stats.total().races_window_trimmed,
        0,
        "the fold was covered by the consumer's view, so nothing is undecidable"
    );
}

#[test]
fn racy_push_into_locally_written_words_is_reported() {
    // A push carries no consistency metadata: the compiler's disjointness
    // proof is the only safety argument. Here the receiver has written the
    // very words the sender pushes — the detector checks exactly that
    // proof obligation at the install.
    let run = Dsm::run(detecting(2), |p| {
        let me = p.proc_id();
        let other = 1 - me;
        let a = p.alloc_array::<u64>(ELEMS);
        let head = a.range_of(0, 8);
        p.prepare_phase(&write_twinned(head));
        for i in 0..8 {
            p.set(&a, i, (10 * me + i) as u64); // both sides write words 0..8
        }
        p.push_exchange([(other, &[head][..])], &[other]);
        first_page(&a)
    });
    assert!(!run.races.is_empty(), "overlapping pushed words must be reported");
    let report = &run.races[0];
    assert_eq!(report.page, run.results[0]);
    assert_eq!(report.sync, SyncKind::Push);
}
