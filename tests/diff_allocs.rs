//! What a diff costs the allocator: sharing one is free, and building one
//! takes the same few allocations however many runs it has. This binary
//! counts every allocation of the process, so it holds exactly one test.

mod counting;

use pagedmem::{Diff, PAGE_SIZE};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// A page differing from the all-zero twin in every `step`-th 32-bit word.
fn every_nth_word(step: usize) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    for word in (0..PAGE_SIZE / 4).step_by(step) {
        page[word * 4] = 1;
    }
    page
}

#[test]
fn sharing_a_diff_is_free_and_building_one_does_not_depend_on_its_runs() {
    let twin = vec![0u8; PAGE_SIZE];
    // Every fourth word: 256 runs.
    let diff = Diff::create(&twin, &every_nth_word(4));
    assert_eq!(diff.modified_ranges().len(), 256);
    let mut held = Vec::with_capacity(1000);
    let ((), clones, _) = counting::allocations_during(|| {
        for _ in 0..1000 {
            held.push(diff.clone());
        }
    });
    assert_eq!(clones, 0, "cloning a diff must share its encoding");
    assert!(held.iter().all(|d| *d == diff));

    // Sparse (4 runs), alternating words (512 runs, the most a page can
    // hold) and dense (1 run of 4 KiB).
    let create = |page: &[u8]| counting::allocations_during(|| Diff::create(&twin, page));
    let (sparse, sparse_allocations, _) = create(&every_nth_word(256));
    let (alternating, alternating_allocations, _) = create(&every_nth_word(2));
    let (dense, dense_allocations, dense_bytes) = create(&every_nth_word(1));
    assert_eq!([sparse.modified_ranges().len(), alternating.modified_ranges().len()], [4, 512]);
    assert_eq!(dense.modified_ranges(), [(0, PAGE_SIZE as u32)]);
    assert_eq!(sparse_allocations, alternating_allocations);
    assert_eq!(sparse_allocations, dense_allocations);
    assert!(dense_allocations <= 3, "{dense_allocations} allocations for one diff");
    // The payload is sized once: nothing near a second page is requested.
    assert!(dense_bytes < PAGE_SIZE as u64 + 256, "{dense_bytes} bytes for a dense diff");
}
