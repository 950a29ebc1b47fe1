//! What a twinned interval costs the allocator: the twin, the copy the flush
//! keeps and the live frame share one page buffer until the frame is
//! written, so each interval that writes its page allocates one page buffer,
//! at its first write. This binary counts every allocation of the process,
//! so it holds exactly one test.

mod counting;

use pagedmem::{AddrRange, Page, PageId, PageTable, Protection, PAGE_SIZE};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// Intervals of one page counted below.
const CYCLES: usize = 64;

/// One interval of `page`: the twinning write-enable, a one-word write, and
/// the flush's write-protect, whose twin and copy are kept as a lazy delta
/// keeps them.
fn interval(table: &mut PageTable, page: PageId, value: u8) -> (Page, Page) {
    assert!(table.write_enable(page, true), "a clean page is twinned");
    table.write_checked(AddrRange::new(page.base(), 4), &[value; 4]).expect("write-enabled");
    table.write_protect(page).expect("a twinned page yields its twin and copy")
}

#[test]
fn a_twinned_interval_allocates_one_page_buffer() {
    let page = PageId(3);
    let mut table = PageTable::new();
    table.map_zeroed(page, Protection::ReadOnly);
    // Held as the diff cache holds them until a reader encodes them.
    let mut held = Vec::with_capacity(CYCLES + 1);
    held.push(interval(&mut table, page, 0xff));

    let ((), allocations, bytes) = counting::allocations_during(|| {
        for k in 0..CYCLES {
            held.push(interval(&mut table, page, k as u8));
        }
    });
    println!("{CYCLES} twinned intervals: {allocations} allocations, {bytes} bytes");
    // One page buffer (and its two reference counts) per interval; a twin
    // and a copy that each copied the page would take 2 · CYCLES.
    assert_eq!(allocations, CYCLES as u64, "{allocations} allocations for {CYCLES} intervals");
    assert!(bytes <= (CYCLES * (PAGE_SIZE + 64)) as u64, "{bytes} bytes for {CYCLES} intervals");
    // Each delta's copy is the next one's twin, byte for byte and buffer
    // for buffer.
    for pair in held.windows(2) {
        let (copy, next_twin) = (&pair[0].1, &pair[1].0);
        assert_eq!(copy.as_slice().as_ptr(), next_twin.as_slice().as_ptr());
        assert_ne!(pair[1].0, pair[1].1, "every counted interval wrote its page");
    }

    // An interval that enables the page and never writes it copies nothing,
    // and its twin is its copy.
    let ((twin, copy), allocations, _) = counting::allocations_during(|| {
        assert!(table.write_enable(page, true));
        table.write_protect(page).expect("twinned")
    });
    assert_eq!(allocations, 0, "an unwritten interval allocated");
    assert_eq!(twin.as_slice().as_ptr(), copy.as_slice().as_ptr());
    assert_eq!(twin, copy);
}
