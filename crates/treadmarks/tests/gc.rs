//! Garbage-collection horizon tests.
//!
//! The barrier distributes the component-wise minimum of every processor's
//! *applied* timestamp; each node trims its own diff cache and notice log
//! at that horizon. These tests pin the two sides of the contract:
//!
//! * **Safety** — a lagging requester is still owed every diff it has a
//!   notice for. A processor holding a frame whose missing diffs it has not
//!   applied pins the producer's component, so concurrent writers protect
//!   each other's history; a processor that never mapped the page is
//!   answered by one producer's full-page base, whose timestamp says which
//!   owed deltas it already holds.
//! * **Liveness** — protocol state no longer grows monotonically: long
//!   runs keep a bounded diff cache and notice log.

use pagedmem::PAGE_SIZE;
use sp2model::CostModel;
use treadmarks::{BarrierTopology, Dsm, DsmConfig, LockId, Process, SyncOp};

const ELEMS: usize = PAGE_SIZE / 8;

fn free(n: usize) -> DsmConfig {
    DsmConfig::new(n).with_cost_model(CostModel::free())
}

/// Unrelated single-writer traffic whose diffs the horizon can collect:
/// every processor rewrites its own scratch page and the next processor
/// reads (and thereby applies) it.
fn scratch_epoch(p: &mut Process, scratch: &treadmarks::SharedArray<u64>, epoch: usize) {
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

#[test]
fn lagging_lock_requester_still_receives_concurrent_writers_diffs() {
    // The adversarial case for a naive "trim at the global-VT minimum"
    // rule: processors 0 and 1 write disjoint halves of one page in epoch
    // 1, then many barriers pass with unrelated (collectable) traffic, and
    // only then does processor 3 acquire a lock and fetch the page. Had
    // either writer trimmed its epoch-1 delta, it could only answer with
    // its own current copy — which lacks the *other* writer's half. The
    // applied-timestamp horizon forbids exactly that: each writer still
    // holds the other's notice unapplied on a mapped frame, pinning both
    // components, while the bystanders' components advance and their
    // history is collected.
    const LOCK: LockId = 5;
    const EPOCHS: usize = 8;
    let half = ELEMS / 2;
    let run = Dsm::run(free(4), move |p| {
        let me = p.proc_id();
        let shared = p.alloc_array::<u64>(ELEMS);
        let scratch = p.alloc_array::<u64>(p.nprocs() * ELEMS);
        if me == 0 {
            for i in 0..half {
                p.set(&shared, i, 1000 + i as u64);
            }
        }
        if me == 1 {
            for i in half..ELEMS {
                p.set(&shared, i, 2000 + i as u64);
            }
        }
        p.barrier();
        for epoch in 0..EPOCHS {
            scratch_epoch(p, &scratch, epoch);
        }
        let horizon = p.gc_horizon();
        assert!(horizon.get(2) > 0, "a bystander's component must advance: {horizon}");
        assert!(horizon.get(3) > 0, "a bystander's component must advance: {horizon}");
        assert_eq!(horizon.get(0), 0, "writer 0 is pinned by writer 1's unapplied diff");
        assert_eq!(horizon.get(1), 0, "writer 1 is pinned by writer 0's unapplied diff");
        if me == 3 {
            p.fetch_diffs_w_sync(SyncOp::Lock(LOCK), &[shared.full_range()]);
            let front = p.get(&shared, 3);
            let back = p.get(&shared, half + 3);
            p.lock_release(LOCK);
            (front, back)
        } else {
            (0, 0)
        }
    });
    assert_eq!(
        run.results[3],
        (1003, 2000 + (half + 3) as u64),
        "the lagging requester must see both concurrent writers' halves"
    );
    assert!(
        run.stats.total().gc_trimmed_diffs > 0,
        "the horizon must have collected the bystanders' scratch history"
    );
}

#[test]
fn garbage_collected_history_is_served_as_a_consolidated_base() {
    // Single-writer history *is* collectable once every frame-holder has
    // applied it — here nobody but the writer ever maps the page, so its
    // epoch-1 delta passes the horizon and is folded into the consolidated
    // base. A latecomer's first touch must then be answered with one full
    // page that claims every folded interval.
    const EPOCHS: usize = 8;
    let quarter = ELEMS / 4;
    let run = Dsm::run(free(4), move |p| {
        let me = p.proc_id();
        let shared = p.alloc_array::<u64>(ELEMS);
        let scratch = p.alloc_array::<u64>(p.nprocs() * ELEMS);
        if me == 0 {
            // Only a quarter of the page: a surviving delta would be a
            // quarter-page diff, so the full-page fetch count below can
            // only come from the consolidated base.
            for i in 0..quarter {
                p.set(&shared, i, 7000 + i as u64);
            }
        }
        p.barrier();
        for epoch in 0..EPOCHS {
            scratch_epoch(p, &scratch, epoch);
        }
        let horizon = p.gc_horizon();
        assert!(
            horizon.get(0) >= 1,
            "nobody holds the single writer's page: its history must pass the horizon: {horizon}"
        );
        if me == 2 {
            let before = p.stats().snapshot().full_page_fetches;
            let inside = p.get(&shared, 5);
            let outside = p.get(&shared, quarter + 5);
            let fetched_full = p.stats().snapshot().full_page_fetches - before;
            assert!(fetched_full >= 1, "the trimmed interval must arrive as a full-page base");
            (inside, outside)
        } else {
            (0, 0)
        }
    });
    assert_eq!(run.results[2], (7005, 0), "base contents must match the writer's history");
    assert!(run.stats.total().gc_trimmed_diffs > 0, "the writer's delta must have been trimmed");
}

#[test]
fn a_base_never_overwrites_a_concurrent_writers_surviving_delta() {
    // The asymmetric variant: processors 0 and 1 write disjoint halves of
    // one page; processor 0 then *reads* processor 1's half (applying its
    // delta), while processor 1 never reads processor 0's. Processor 1's
    // horizon component therefore advances — its delta is folded, and a
    // base of its page lacks processor 0's half — while processor 0 stays
    // pinned and its delta survives. A latecomer gets the base from 1 and
    // the delta from 0; the base's timestamp does not cover the delta, so
    // the delta must apply on top, or the latecomer would read zeros where
    // processor 0 wrote.
    const EPOCHS: usize = 8;
    let half = ELEMS / 2;
    let run = Dsm::run(free(4), move |p| {
        let me = p.proc_id();
        let shared = p.alloc_array::<u64>(ELEMS);
        let scratch = p.alloc_array::<u64>(p.nprocs() * ELEMS);
        if me == 0 {
            for i in half..ELEMS {
                p.set(&shared, i, 2000 + i as u64);
            }
        }
        if me == 1 {
            for i in 0..half {
                p.set(&shared, i, 1000 + i as u64);
            }
        }
        p.barrier();
        if me == 0 {
            let mut sink = 0u64;
            for i in 0..half {
                sink = sink.wrapping_add(p.get(&shared, i));
            }
            std::hint::black_box(sink);
        }
        p.barrier();
        for epoch in 0..EPOCHS {
            scratch_epoch(p, &scratch, epoch);
        }
        let horizon = p.gc_horizon();
        assert_eq!(horizon.get(0), 0, "writer 0 stays pinned by writer 1's unapplied diff");
        assert!(horizon.get(1) > 0, "writer 1's history is collectable: {horizon}");
        if me == 3 {
            (p.get(&shared, 3), p.get(&shared, half + 3))
        } else {
            (0, 0)
        }
    });
    assert_eq!(
        run.results[3],
        (1003, 2000 + (half + 3) as u64),
        "the surviving delta must win over the consolidated base's stale bytes"
    );
}

#[test]
fn two_folded_writers_answer_a_first_touch_with_one_base() {
    // Processors 0 and 1 write disjoint halves of one page and each reads
    // the whole page, so each applies the other's delta and neither pins
    // the other: both intervals pass the horizon. Any producer of the page
    // has applied everything at or below the horizon, so a latecomer's
    // first touch is answered by one base — processor 0's, whose timestamp
    // covers processor 1's interval too.
    const EPOCHS: usize = 8;
    let half = ELEMS / 2;
    let run = Dsm::run(free(4), move |p| {
        let me = p.proc_id();
        let shared = p.alloc_array::<u64>(ELEMS);
        let scratch = p.alloc_array::<u64>(p.nprocs() * ELEMS);
        if me < 2 {
            for i in me * half..(me + 1) * half {
                p.set(&shared, i, (1000 * (me + 1) + i) as u64);
            }
        }
        p.barrier();
        if me < 2 {
            let mut sink = 0u64;
            for i in 0..ELEMS {
                sink = sink.wrapping_add(p.get(&shared, i));
            }
            std::hint::black_box(sink);
        }
        p.barrier();
        for epoch in 0..EPOCHS {
            scratch_epoch(p, &scratch, epoch);
        }
        let horizon = p.gc_horizon();
        assert!(horizon.get(0) > 0, "writer 0's interval is folded: {horizon}");
        assert!(horizon.get(1) > 0, "writer 1's interval is folded: {horizon}");
        if me == 3 {
            let before = p.stats().snapshot().full_page_fetches;
            let values = (p.get(&shared, 3), p.get(&shared, half + 3));
            (values, p.stats().snapshot().full_page_fetches - before)
        } else {
            ((0, 0), 0)
        }
    });
    let (values, full_pages) = run.results[3];
    assert_eq!(values, (1003, 2000 + (half + 3) as u64), "the base holds both halves");
    assert_eq!(full_pages, 1, "one base answers both folded writers");
}

#[test]
fn diff_cache_and_notice_log_stay_bounded_across_iterations() {
    // Before the horizon existed every interval's diff was retained
    // forever: a run of N iterations kept O(N) entries. With every
    // processor applying what it is owed each epoch, the cache must now
    // hold only the last couple of epochs regardless of N.
    const ITERS: usize = 40;
    for topology in [BarrierTopology::Tree { arity: 2 }, BarrierTopology::FlatMaster] {
        let run = Dsm::run(free(4).with_barrier(topology), |p| {
            let n = p.nprocs();
            let me = p.proc_id();
            let grid = p.alloc_array::<u64>(n * ELEMS);
            let mut early = (0, 0);
            let mut late = (0, 0);
            for it in 0..ITERS {
                for i in (0..ELEMS).step_by(16) {
                    p.set(&grid, me * ELEMS + i, (it + i) as u64);
                }
                p.barrier();
                let mut sink = 0u64;
                for other in (0..n).filter(|&o| o != me) {
                    sink = sink.wrapping_add(p.get(&grid, other * ELEMS));
                }
                std::hint::black_box(sink);
                p.barrier();
                if it == 9 {
                    early = (p.diff_cache_entries(), p.notice_log_records());
                }
                if it == ITERS - 1 {
                    late = (p.diff_cache_entries(), p.notice_log_records());
                }
            }
            (early, late)
        });
        for &((early_diffs, early_notices), (late_diffs, late_notices)) in &run.results {
            assert!(
                late_diffs <= early_diffs,
                "diff cache must not grow with iterations ({topology:?}): \
                 {early_diffs} at iter 10 vs {late_diffs} at iter {ITERS}"
            );
            assert!(late_diffs <= 6, "diff cache must stay small ({topology:?}): {late_diffs}");
            assert!(
                late_notices <= early_notices + 4,
                "notice log must not grow with iterations ({topology:?}): \
                 {early_notices} -> {late_notices}"
            );
        }
        let trimmed = run.stats.total().gc_trimmed_diffs;
        assert!(
            trimmed as usize >= ITERS,
            "steady-state trimming must keep pace with production ({topology:?}): {trimmed}"
        );
    }
}

#[test]
fn a_lock_only_loop_trims_at_barriers_only() {
    // A release flushes an interval like a barrier does, but distributes no
    // horizon: intervals flushed by a loop of critical sections accumulate
    // in the diff cache until barriers advance the horizon past them and
    // trim them — as they do in a program written against the runtime by
    // hand, and in any compiled plan whose loop synchronizes by locks alone.
    // One processor holds the lock, so the holder order is fixed.
    const LOCK: LockId = 2;
    let run = Dsm::run(free(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS);
        if p.proc_id() == 0 {
            for round in 0..3u64 {
                p.lock_acquire(LOCK);
                for i in (0..ELEMS).step_by(64) {
                    p.set(&a, i, round * 1000 + i as u64);
                }
                p.lock_release(LOCK);
                assert_eq!(p.gc_horizon().get(0), 0, "a release must not move the GC horizon");
            }
        }
        // The first barrier delivers the releases' notices, which the
        // horizon it distributes cannot yet cover; the second trims.
        let mut seen = vec![(p.diff_cache_entries(), p.gc_horizon().get(0))];
        for _ in 0..2 {
            p.barrier();
            seen.push((p.diff_cache_entries(), p.gc_horizon().get(0)));
        }
        seen
    });
    let seen = &run.results[0];
    assert!(seen[0].0 >= 3, "three released intervals must be cached: {seen:?}");
    assert_eq!(seen[1].1, 0, "the notices arrive with the first barrier: {seen:?}");
    assert!(seen[2].0 < seen[0].0, "the second barrier must trim them: {seen:?}");
    assert!(seen[2].1 >= 3, "and advance the horizon past the releases: {seen:?}");
}

#[test]
fn a_folded_later_write_is_not_overwritten_by_an_older_pinned_delta() {
    // The lost update behind the `is/treadmarks` checksum flake, made
    // deterministic. Processor 0 writes word W of page X and one word of
    // page Y in a single interval; a barrier later processor 1 overwrites W,
    // so its interval happens after processor 0's. Processor 3 mapped Y
    // before either write and never re-reads it: its unapplied notice pins
    // the horizon's component 0, so processor 0's interval survives as a
    // delta. Processor 0 reads X and thereby applies processor 1's diff, so
    // component 1 passes the horizon and processor 1 folds its interval into
    // a base. Processor 2, which never mapped X, then touches it: it is owed
    // processor 1's base (W = 2) and processor 0's delta (W = 1), and must
    // read the causally later value.
    const EPOCHS: usize = 4;
    const W: usize = 7;
    let run = Dsm::run(free(4), move |p| {
        let me = p.proc_id();
        let x = p.alloc_array::<u64>(ELEMS);
        let y = p.alloc_array::<u64>(ELEMS);
        let scratch = p.alloc_array::<u64>(p.nprocs() * ELEMS);
        if me == 3 {
            std::hint::black_box(p.get(&y, 0));
        }
        p.barrier();
        if me == 0 {
            p.set(&x, W, 1);
            p.set(&y, 0, 1);
        }
        p.barrier();
        if me == 1 {
            p.set(&x, W, 2);
        }
        p.barrier();
        if me == 0 {
            std::hint::black_box(p.get(&x, W));
        }
        p.barrier();
        for epoch in 0..EPOCHS {
            scratch_epoch(p, &scratch, epoch);
        }
        let horizon = p.gc_horizon();
        assert_eq!(horizon.get(0), 0, "writer 0 stays pinned by processor 3's frame of Y");
        assert!(horizon.get(1) > 0, "writer 1's interval is folded into a base: {horizon}");
        if me == 2 {
            p.get(&x, W)
        } else {
            0
        }
    });
    assert_eq!(run.results[2], 2, "the causally later write must win over the older delta");
}

#[test]
fn a_base_never_lands_on_a_delta_a_merged_fetch_applied() {
    // A merged fetch names only intervals above the horizon. A page its
    // requester never mapped can then receive a delta the lowest frame
    // holder's base does not cover, while still owing folded history only
    // that base restores. The page must take neither until its first
    // touch fetches both in one batch: the base beneath, the delta on top.
    // Applied early, the delta was overwritten by the base, and the
    // requester read `(7, 0)`.
    let run = Dsm::run(free(4), |p| {
        let me = p.proc_id();
        let x = p.alloc_array::<u64>(ELEMS);
        let scratch = p.alloc_array::<u64>(p.nprocs() * ELEMS);
        if me == 0 {
            p.set(&x, 0, 7);
        }
        p.barrier();
        for epoch in 0..4 {
            scratch_epoch(p, &scratch, epoch);
        }
        // P1's base holds P0's folded write; P0 never re-reads X, so its
        // frame pins P1's interval above the horizon and lacks word 100.
        if me == 1 {
            std::hint::black_box(p.get(&x, 0));
            p.set(&x, 100, 9);
        }
        p.barrier();
        for epoch in 4..8 {
            scratch_epoch(p, &scratch, epoch);
        }
        let horizon = p.gc_horizon();
        assert!(horizon.get(0) > 0, "P0's write is folded: {horizon}");
        if me == 2 {
            p.fetch_diffs_w_sync(SyncOp::Barrier, &[x.full_range()]);
            (p.get(&x, 0), p.get(&x, 100))
        } else {
            p.barrier();
            (0, 0)
        }
    });
    assert_eq!(run.results[2], (7, 9), "the base must land beneath P1's delta");
}
