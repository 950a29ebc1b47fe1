//! Adversarial tests for the checked access path. Every access reads the
//! page's own protection under the node's table lock, so on every path that
//! revokes an access right (write-protect, invalidate-on-acquire, barrier
//! write-notice application) or replaces contents (push installs) the very
//! next access must fault, or see the new bytes — never the old ones — and
//! an access to a valid page costs one table-lock hold and no fault.
//!
//! The second half pins liveness and failure: a requester serving its own
//! request still gets at a page the owner keeps accessing, every revocation
//! path still faults the very next access to a page that was accessed a
//! moment before, and a panic raised while a peer is fetching a page comes
//! out of `Dsm::run` as that panic.

use std::time::{Duration, Instant};

use pagedmem::{AddrRange, PAGE_SIZE};
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig, LockId, PhasePlan, Process, Shareable};

fn free_config(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs).with_cost_model(CostModel::free())
}

/// The plan a compiled phase prepares a `WRITE_ALL` section with.
fn write_all(range: AddrRange) -> PhasePlan {
    PhasePlan { write_all: vec![range], ..PhasePlan::default() }
}

const ELEMS_PER_PAGE: usize = PAGE_SIZE / 8;

#[test]
fn n_page_runs_over_valid_pages_take_n_table_locks_and_no_fault() {
    // A checked access is one hold of the node's table lock: once its pages
    // are valid and writable, each element access and each page-run of a
    // bulk access adds exactly one acquisition, and none faults.
    Dsm::run(free_config(1), |p| {
        let a = p.alloc_array::<u64>(2 * ELEMS_PER_PAGE);
        for i in 0..a.len() {
            p.set(&a, i, i as u64);
        }
        let before = p.stats().snapshot();
        let mut sum = 0u64;
        for _ in 0..10 {
            for i in 0..a.len() {
                sum += p.get(&a, i);
            }
        }
        for i in 0..a.len() {
            p.set(&a, i, 2 * i as u64);
        }
        let elements = 11 * a.len();
        let mut buf = vec![0u64; a.len()];
        // Two page-runs each, the last across the page boundary.
        p.get_slice(&a, 0..a.len(), &mut buf);
        p.set_slice(&a, 0..a.len(), &buf);
        p.get_slice(&a, ELEMS_PER_PAGE - 1..ELEMS_PER_PAGE + 1, &mut buf[..2]);
        let runs = 3 * 2;
        let after = p.stats().snapshot();
        assert_eq!(
            after.table_lock_acquires - before.table_lock_acquires,
            (elements + runs) as u64,
            "one table-lock hold per element access and per page-run"
        );
        assert_eq!(after.page_faults, before.page_faults, "no access to a valid page faults");
        assert_eq!(buf[..2], [2 * (ELEMS_PER_PAGE as u64 - 1), 2 * ELEMS_PER_PAGE as u64]);
        sum
    });
}

#[test]
fn a_write_fault_on_one_page_costs_no_fault_on_another() {
    // The stock plan's steady state: every interval re-faults
    // the pages it writes, and that must stay those pages' business.
    Dsm::run(free_config(1), |p| {
        let a = p.alloc_array::<u64>(3 * ELEMS_PER_PAGE);
        for page in 0..3 {
            p.set(&a, page * ELEMS_PER_PAGE, 1);
        }
        p.barrier(); // write-protects all three
        let before = p.stats().snapshot();
        p.set(&a, 0, 2); // the one write fault
        for page in 1..3 {
            assert_eq!(p.get(&a, page * ELEMS_PER_PAGE), 1);
        }
        let after = p.stats().snapshot();
        assert_eq!(after.page_faults, before.page_faults + 1);
    });
}

#[test]
fn a_written_page_refaults_after_the_flush_write_protects() {
    Dsm::run(free_config(1), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        p.set(&a, 0, 1);
        // A release write-protects what the interval wrote.
        p.barrier();
        // The next write must fault (twin + re-enable).
        let before = p.stats().snapshot();
        p.set(&a, 0, 2);
        let after = p.stats().snapshot();
        assert_eq!(after.page_faults, before.page_faults + 1);
        assert_eq!(after.twins_created, before.twins_created + 1);
        assert_eq!(p.get(&a, 0), 2);
    });
}

#[test]
fn a_read_page_sees_the_remote_value_after_a_barriers_notices() {
    // The central adversarial case: processor 0 reads a page, the producer
    // overwrites it, and the barrier's write notices invalidate it. Serving
    // the old value here would be a coherence violation.
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        if p.proc_id() == 1 {
            p.set(&a, 0, 5);
        }
        p.barrier();
        assert_eq!(p.get(&a, 0), 5, "map the page readable");
        p.barrier();
        if p.proc_id() == 1 {
            p.set(&a, 0, 42);
        }
        p.barrier();
        let faults = p.stats().snapshot().page_faults;
        let value = p.get(&a, 0);
        if p.proc_id() == 0 {
            assert_eq!(
                p.stats().snapshot().page_faults,
                faults + 1,
                "the invalidated page must fault and refetch"
            );
        }
        value
    });
    assert_eq!(run.results, vec![42, 42], "an invalidated page must never serve stale data");
}

#[test]
fn a_read_page_sees_the_remote_value_after_a_lock_grant() {
    const LOCK: LockId = 7;
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        if p.proc_id() == 0 {
            p.lock_acquire(LOCK);
            p.set(&a, 3, 5);
            p.lock_release(LOCK);
        }
        p.barrier();
        assert_eq!(p.get(&a, 3), 5, "map the page readable");
        if p.proc_id() == 0 {
            p.lock_acquire(LOCK);
            p.set(&a, 3, 9);
            p.lock_release(LOCK);
            9
        } else {
            // Poll under the lock until the producer's release is visible:
            // the grant that transfers the write notice invalidates the
            // page, so exactly the read that sees 9 faults. The poll is
            // bounded, so a read that never sees the release fails instead
            // of spinning.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let faults = p.stats().snapshot().page_faults;
                p.lock_acquire(LOCK);
                let v = p.get(&a, 3);
                p.lock_release(LOCK);
                let faulted = p.stats().snapshot().page_faults - faults;
                assert_eq!(faulted, u64::from(v == 9), "read {v}");
                if v == 9 {
                    return v;
                }
                assert!(
                    Instant::now() < deadline,
                    "the release never became visible: last read {v}"
                );
            }
        }
    });
    assert_eq!(run.results, vec![9, 9]);
}

#[test]
fn a_read_page_sees_the_pushed_bytes() {
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(2 * ELEMS_PER_PAGE);
        let me = p.proc_id();
        let other = 1 - me;
        let half = a.len() / 2;
        let mine = a.range_of(me * half, (me + 1) * half);
        p.prepare_phase(&write_all(mine));
        for i in 0..half {
            p.set(&a, me * half + i, (me * 100 + i) as u64);
        }
        // Touch the peer's half before the push: it materialises
        // zero-filled.
        assert_eq!(p.get(&a, other * half), 0);
        p.push_exchange([(other, &[mine][..])], &[other]);
        p.get(&a, other * half)
    });
    assert_eq!(run.results, vec![100, 0], "the pushed contents must replace the stale zeros");
}

/// Bulk and per-element accesses of `T` agree, in both directions, over
/// the whole array and over a run that starts unaligned within a page and
/// crosses two page boundaries.
fn bulk_matches_per_element<T: Shareable + PartialEq + std::fmt::Debug>(
    p: &mut Process,
    value: impl Fn(usize) -> T,
) {
    let per_page = PAGE_SIZE / T::BYTES;
    let a = p.alloc_array::<T>(3 * per_page + 100);
    let name = std::any::type_name::<T>();
    let values: Vec<T> = (0..a.len()).map(&value).collect();
    p.set_slice(&a, 0..a.len(), &values);
    for i in (0..a.len()).step_by(97) {
        assert_eq!(p.get(&a, i), values[i], "{name}: set_slice must agree with per-element get");
    }
    let mut out = vec![value(0); a.len() - 13];
    p.get_slice(&a, 13..a.len(), &mut out);
    assert_eq!(out[..], values[13..], "{name}: get_slice must agree with set_slice");

    // Pages 0, 1 and 2, from 13 elements before the first boundary to 17
    // past the second.
    let run = per_page - 13..2 * per_page + 17;
    let shifted: Vec<T> = run.clone().map(|i| value(i + 1)).collect();
    for (i, &v) in run.clone().zip(&shifted) {
        p.set(&a, i, v);
    }
    let mut out = vec![value(0); run.len()];
    p.get_slice(&a, run.clone(), &mut out);
    assert_eq!(out, shifted, "{name}: get_slice must agree with per-element set");
    p.set_slice(&a, run.clone(), &values[run.clone()]);
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(p.get(&a, i), v, "{name}: set_slice over the run, element {i}");
    }
}

#[test]
fn bulk_accessors_match_per_element_access() {
    Dsm::run(free_config(1), |p| {
        // Distinct bytes per element, so a shifted or swapped codec shows.
        let mix = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        bulk_matches_per_element(p, |i| mix(i) as u8);
        bulk_matches_per_element(p, |i| mix(i) as i32);
        bulk_matches_per_element(p, |i| mix(i) as u32);
        bulk_matches_per_element(p, |i| (mix(i) >> 40) as f32 - 1e6);
        bulk_matches_per_element(p, |i| mix(i) as i64);
        bulk_matches_per_element(p, mix);
        bulk_matches_per_element(p, |i| (mix(i) >> 11) as f64 * -0.25);
    });
}

#[test]
#[should_panic(expected = "out of bounds")]
fn a_bulk_range_past_the_array_panics_inside_its_last_page() {
    Dsm::run(free_config(1), |p| {
        // The page has room for the eleventh element; the array has not.
        let a = p.alloc_array::<u64>(10);
        p.set_slice(&a, 0..11, &[1; 11]);
    });
}

// ----------------------------------------------------------------------
// Liveness and failure
// ----------------------------------------------------------------------

/// Processor 0 produces a page and then keeps accessing it while every
/// other processor demand-fetches that page — a whole-page fetch on even
/// rounds (`WRITE_ALL` keeps no delta, so the handler has to read the frame
/// itself), ordinary diffs on odd ones. Each requester runs processor 0's
/// handler on its own thread, which takes processor 0's table lock between
/// that processor's accesses.
fn hammer_a_page_while_peers_fetch_it(config: DsmConfig) {
    const ROUNDS: usize = 12;
    const HITS: usize = 20_000;
    let half = ELEMS_PER_PAGE / 2;
    Dsm::run(config, |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        let mut seen = 0u64;
        for round in 0..ROUNDS {
            let value = |i: usize| (round * 1000 + i) as u64;
            if p.proc_id() == 0 {
                if round % 2 == 0 {
                    p.prepare_phase(&write_all(a.full_range()));
                    for i in 0..a.len() {
                        p.set(&a, i, value(i));
                    }
                } else {
                    for i in 0..half {
                        p.set(&a, i, value(i));
                    }
                }
            }
            p.barrier();
            if p.proc_id() == 0 {
                // Reads of the words the peers fetch, writes to a word
                // nobody else touches: none of them faults.
                for k in 0..HITS {
                    seen = seen.wrapping_add(p.get(&a, k % half));
                    p.set(&a, a.len() - 1, k as u64);
                }
            } else {
                let i = (round + p.proc_id()) % half;
                assert_eq!(p.get(&a, i), value(i), "round {round}: the fetched page is current");
            }
            p.barrier();
        }
        seen
    });
}

#[test]
fn a_hammered_page_stays_fetchable_at_2_and_8_processors() {
    for nprocs in [2, 8] {
        hammer_a_page_while_peers_fetch_it(free_config(nprocs));
    }
}

#[test]
fn the_flush_write_protect_revokes_a_writable_page() {
    Dsm::run(free_config(1), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        p.set(&a, 0, 1);
        p.set(&a, 1, 2); // no fault: the page is writable
        let faults = p.stats().snapshot().page_faults;
        p.barrier(); // ends the interval: diff, write-protect
        p.set(&a, 0, 3);
        assert_eq!(p.stats().snapshot().page_faults, faults + 1, "the next write must fault");
        assert_eq!(p.get(&a, 0), 3);
        assert_eq!(p.get(&a, 1), 2);
    });
}

#[test]
fn a_lock_grants_invalidation_revokes_a_read_page() {
    // Lock 0 is managed by processor 0, which takes it before the second
    // barrier: processor 1's acquire is ordered after that whatever the
    // host does, so its grant carries the notice of the write.
    const LOCK: LockId = 0;
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        if p.proc_id() == 0 {
            p.set(&a, 3, 5);
        }
        p.barrier();
        assert_eq!(p.get(&a, 3), 5, "map the page everywhere");
        if p.proc_id() == 0 {
            p.lock_acquire(LOCK);
        }
        p.barrier();
        if p.proc_id() == 0 {
            p.set(&a, 3, 9);
            p.lock_release(LOCK);
            9
        } else {
            assert_eq!(p.get(&a, 3), 5);
            assert_eq!(p.get(&a, 3), 5, "a read that does not fault");
            let faults = p.stats().snapshot().page_faults;
            p.lock_acquire(LOCK);
            let v = p.get(&a, 3);
            assert_eq!(p.stats().snapshot().page_faults, faults + 1, "the next read must fault");
            p.lock_release(LOCK);
            v
        }
    });
    assert_eq!(run.results, vec![9, 9]);
}

#[test]
fn a_barriers_write_notices_revoke_a_read_page() {
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        if p.proc_id() == 1 {
            p.set(&a, 0, 5);
        }
        p.barrier();
        assert_eq!(p.get(&a, 0), 5);
        p.barrier();
        if p.proc_id() == 1 {
            p.set(&a, 0, 42);
            p.barrier();
            return 42;
        }
        // Still the old value, right up to the barrier that delivers the
        // notice.
        assert_eq!(p.get(&a, 0), 5);
        let faults = p.stats().snapshot().page_faults;
        p.barrier();
        let v = p.get(&a, 0);
        assert_eq!(p.stats().snapshot().page_faults, faults + 1, "the next read must fault");
        v
    });
    assert_eq!(run.results, vec![42, 42]);
}

#[test]
fn a_push_install_reaches_a_read_page() {
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(2 * ELEMS_PER_PAGE);
        let me = p.proc_id();
        let other = 1 - me;
        let half = a.len() / 2;
        let mine = a.range_of(me * half, (me + 1) * half);
        p.prepare_phase(&write_all(mine));
        for i in 0..half {
            p.set(&a, me * half + i, (me * 100 + i + 1) as u64);
        }
        // The peer's half: materialises zero-filled, then reads without a
        // fault.
        assert_eq!(p.get(&a, other * half), 0);
        assert_eq!(p.get(&a, other * half + 1), 0);
        p.push_exchange([(other, &[mine][..])], &[other]);
        let before = p.stats().snapshot();
        let v = p.get(&a, other * half);
        let after = p.stats().snapshot();
        // The install replaced the contents under the table lock; the page
        // serves the new bytes without a fault.
        assert_eq!(after.page_faults, before.page_faults);
        v
    });
    assert_eq!(run.results, vec![101, 1], "the pushed contents replace the stale zeros");
}

#[test]
#[should_panic(expected = "application bug while holding leases")]
fn a_panic_while_a_peer_fetches_the_page_propagates_as_itself() {
    // Processor 0 dies right after reading a page while processor 1 is
    // fetching that very page (a whole-page fetch, which has the handler
    // read the frame) and then waits at a barrier. The handler finishes,
    // the peer is poisoned out of its barrier, and the run reports the
    // application's own panic.
    let _ = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        if p.proc_id() == 0 {
            p.prepare_phase(&write_all(a.full_range()));
            for i in 0..a.len() {
                p.set(&a, i, 7);
            }
        }
        p.barrier();
        if p.proc_id() == 0 {
            assert_eq!(p.get(&a, 0), 7);
            assert_eq!(p.get(&a, 1), 7);
            panic!("application bug while holding leases");
        }
        assert_eq!(p.get(&a, 5), 7);
        p.barrier();
    });
}
