//! The notice log against the map of intervals it used to be.

use std::collections::BTreeMap;

use pagedmem::PageId;
use treadmarks::{Interval, NoticeLog, NoticeRecord, Vt};

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

#[test]
fn the_sorted_queue_behaves_like_a_map_of_intervals() {
    // A seeded mix of every operation — records mostly in order, some out
    // of order, some duplicate.
    const NPROCS: usize = 3;
    for seed in 0..16u64 {
        let mut log = NoticeLog::new(NPROCS);
        let mut model: Vec<BTreeMap<Interval, Vec<PageId>>> = vec![BTreeMap::new(); NPROCS];
        for step in 0..300u64 {
            let draw = |k: u64| mix(&[seed, step, k]);
            let proc = (draw(0) % NPROCS as u64) as usize;
            let latest = model[proc].keys().next_back().copied().unwrap_or(0);
            let some_vt = || {
                let mut vt = Vt::new(NPROCS);
                for p in 0..NPROCS {
                    vt.advance(p, (draw(10 + p as u64) % (u64::from(latest) + 3)) as Interval);
                }
                vt
            };
            match draw(1) % 8 {
                0..=3 => {
                    let interval = if draw(2) % 4 == 0 {
                        1 + (draw(3) % (u64::from(latest) + 2)) as Interval
                    } else {
                        latest + 1 + (draw(3) % 2) as Interval
                    };
                    let pages: Vec<PageId> =
                        (0..1 + draw(4) % 3).map(|k| PageId((draw(5 + k) % 16) as usize)).collect();
                    let fresh = !model[proc].contains_key(&interval);
                    if fresh {
                        model[proc].insert(interval, pages.clone());
                    }
                    let record = NoticeRecord { proc, interval, pages: pages.into() };
                    assert_eq!(log.record(record), fresh);
                }
                4 => {
                    let interval = (draw(2) % (u64::from(latest) + 2)) as Interval;
                    assert_eq!(log.contains(proc, interval), model[proc].contains_key(&interval));
                }
                5 | 6 => {
                    let vt = some_vt();
                    let mut expected = Vec::new();
                    for (proc, intervals) in model.iter().enumerate() {
                        for (&interval, pages) in intervals.range(vt.get(proc) + 1..) {
                            let pages = pages.as_slice().into();
                            expected.push(NoticeRecord { proc, interval, pages });
                        }
                    }
                    assert_eq!(log.clone_after(&vt), expected);
                }
                _ => {
                    let horizon = some_vt();
                    let mut removed = 0;
                    for (proc, intervals) in model.iter_mut().enumerate() {
                        let keep = intervals.split_off(&(horizon.get(proc) + 1));
                        removed += intervals.len();
                        *intervals = keep;
                    }
                    assert_eq!(log.trim_covered(&horizon, |_| {}), removed);
                }
            }
            assert_eq!(log.interval_count(), model.iter().map(BTreeMap::len).sum::<usize>());
        }
    }
}
