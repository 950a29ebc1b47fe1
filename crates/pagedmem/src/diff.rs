//! Word-granularity diffs between a twin and a modified page.
//!
//! TreadMarks encodes the modifications made to a page as a *diff*: the page
//! is compared word by word against its twin (the copy saved when the page
//! first became writable) and the changed runs are recorded. Diffs, not whole
//! pages, travel over the network, and multiple diffs for the same page can
//! be applied in timestamp order to reconstruct a consistent copy — this is
//! what enables the multiple-writer protocol and what causes the *diff
//! accumulation* pathology the paper observes for IS.
//!
//! A diff is created once and shipped to whoever asks, so it is stored the
//! way it travels: one list of run headers and **one** payload buffer behind
//! an [`Arc`]. A built diff has no `&mut` method; cloning it — at every
//! serve, every duplicated message — shares the encoding instead of copying
//! it.

use std::fmt;
use std::sync::Arc;

use crate::{MemError, PAGE_SIZE};

/// Comparison granularity in bytes (one 32-bit word, as in TreadMarks).
const WORD: usize = 4;

/// Two runs are separated by at least one clean word, so a page holds at
/// most this many.
const MAX_RUNS: usize = PAGE_SIZE / (2 * WORD);

// An extent stores offsets and lengths up to `PAGE_SIZE` in 16 bits.
const _: () = assert!(PAGE_SIZE <= u16::MAX as usize);

/// Where one run of modified bytes lands in the page (word aligned). Its
/// new contents are the next `len` bytes of the diff's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Extent {
    offset: u16,
    len: u16,
}

/// The run-length encoding: what [`Diff`] shares.
#[derive(Debug, PartialEq, Eq, Default)]
struct Encoded {
    /// The runs, ascending by offset and never adjacent.
    extents: Box<[Extent]>,
    /// The runs' new contents, concatenated in extent order.
    payload: Box<[u8]>,
}

/// A word-granularity run-length encoded diff of one page: immutable once
/// built, and shared — not copied — by `clone`.
///
/// ```
/// use pagedmem::{Diff, PAGE_SIZE};
/// let twin = vec![0u8; PAGE_SIZE];
/// let mut modified = twin.clone();
/// modified[8..16].copy_from_slice(&[9; 8]);
/// let diff = Diff::create(&twin, &modified);
/// assert_eq!(diff.modified_ranges(), [(8, 16)]);
/// assert!(diff.encoded_bytes() < PAGE_SIZE);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diff(Arc<Encoded>);

impl Diff {
    /// Compares `current` against `twin` and records the changed words.
    ///
    /// Runs are word granular, but the scan compares 8-byte blocks and only
    /// looks at the two 4-byte words of a block that differs — on the common
    /// mostly-clean page this halves the comparisons without changing the
    /// encoding. The scan only notes where the runs are (on the stack: a
    /// page holds at most 512); the payload buffer is then sized
    /// once and filled, so a diff costs the same three allocations whether
    /// it has one run or five hundred.
    ///
    /// # Panics
    ///
    /// Panics if the two buffers are not both exactly [`PAGE_SIZE`] long.
    pub fn create(twin: &[u8], current: &[u8]) -> Diff {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be a whole page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be a whole page");
        const BLOCK: usize = 2 * WORD;
        let mut extents = [Extent::default(); MAX_RUNS];
        let mut runs = 0;
        let mut modified = 0;
        let mut run_start: Option<usize> = None;
        let mut close = |start: usize, end: usize| {
            extents[runs] = Extent { offset: start as u16, len: (end - start) as u16 };
            runs += 1;
            modified += end - start;
        };
        for (block, (t, c)) in twin.chunks_exact(BLOCK).zip(current.chunks_exact(BLOCK)).enumerate()
        {
            let lo = block * BLOCK;
            let t = u64::from_le_bytes(t.try_into().expect("8-byte block"));
            let c = u64::from_le_bytes(c.try_into().expect("8-byte block"));
            // Little endian: the low half of the XOR is the block's first
            // word.
            let x = t ^ c;
            if x == 0 {
                // Both words are clean; a run open at this point ends exactly
                // where the word-by-word scan would have ended it.
                if let Some(start) = run_start.take() {
                    close(start, lo);
                }
                continue;
            }
            for (word_lo, differs) in [(lo, x as u32 != 0), (lo + WORD, x >> 32 != 0)] {
                match (differs, run_start) {
                    (true, None) => run_start = Some(word_lo),
                    (false, Some(start)) => {
                        close(start, word_lo);
                        run_start = None;
                    }
                    _ => {}
                }
            }
        }
        if let Some(start) = run_start {
            close(start, PAGE_SIZE);
        }
        let extents = &extents[..runs];
        let mut payload = Vec::with_capacity(modified);
        for e in extents {
            let start = usize::from(e.offset);
            payload.extend_from_slice(&current[start..start + usize::from(e.len)]);
        }
        Diff(Arc::new(Encoded { extents: extents.into(), payload: payload.into_boxed_slice() }))
    }

    /// A diff that describes the entire page contents (used when a whole page
    /// must be shipped, e.g. the first copy of a page).
    pub fn full_page(current: &[u8]) -> Diff {
        assert_eq!(current.len(), PAGE_SIZE, "page must be a whole page");
        let whole = Extent { offset: 0, len: PAGE_SIZE as u16 };
        Diff(Arc::new(Encoded { extents: Box::new([whole]), payload: current.into() }))
    }

    /// Applies the diff to `page`, overwriting the recorded runs.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadPageLength`] if `page` is not exactly one page.
    pub fn apply(&self, page: &mut [u8]) -> Result<(), MemError> {
        if page.len() != PAGE_SIZE {
            return Err(MemError::BadPageLength(page.len()));
        }
        let mut rest = &self.0.payload[..];
        for e in &self.0.extents {
            let (data, tail) = rest.split_at(usize::from(e.len));
            let start = usize::from(e.offset);
            page[start..start + data.len()].copy_from_slice(data);
            rest = tail;
        }
        Ok(())
    }

    /// Number of modified bytes recorded.
    pub fn modified_bytes(&self) -> usize {
        self.0.payload.len()
    }

    /// The modified byte ranges as half-open `(start, end)` offsets within
    /// the page, sorted and non-overlapping — the diff's *word-write set*,
    /// without the payload. This is what the race detector intersects
    /// across intervals.
    pub fn modified_ranges(&self) -> Vec<(u32, u32)> {
        self.0
            .extents
            .iter()
            .map(|e| (u32::from(e.offset), u32::from(e.offset) + u32::from(e.len)))
            .collect()
    }

    /// Size of the diff as transmitted: run headers plus run payloads.
    ///
    /// Each run costs 8 header bytes (offset + length) in the wire encoding.
    pub fn encoded_bytes(&self) -> usize {
        self.0.extents.len() * 8 + self.0.payload.len()
    }
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "diff with {} runs, {} modified bytes",
            self.0.extents.len(),
            self.modified_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(edits: &[(usize, u8)]) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        for &(i, v) in edits {
            p[i] = v;
        }
        p
    }

    #[test]
    fn empty_diff_for_identical_pages() {
        let twin = page_with(&[(3, 7)]);
        let diff = Diff::create(&twin, &twin);
        assert!(diff.modified_ranges().is_empty());
        assert_eq!(diff.encoded_bytes(), 0);
    }

    #[test]
    fn diff_round_trips_onto_twin_copy() {
        let twin = page_with(&[(100, 1)]);
        let current = page_with(&[(100, 1), (200, 2), (201, 3), (4000, 9)]);
        let diff = Diff::create(&twin, &current);
        let mut rebuilt = twin.clone();
        diff.apply(&mut rebuilt).unwrap();
        assert_eq!(rebuilt, current);
    }

    #[test]
    fn adjacent_words_coalesce_into_one_run() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut current = twin.clone();
        current[16..32].copy_from_slice(&[5; 16]);
        let diff = Diff::create(&twin, &current);
        assert_eq!(diff.0.extents.len(), 1);
        assert_eq!(diff.modified_bytes(), 16);
        assert_eq!(diff.encoded_bytes(), 8 + 16);
    }

    #[test]
    fn separated_modifications_produce_separate_runs() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut current = twin.clone();
        current[0] = 1;
        current[2048] = 1;
        let diff = Diff::create(&twin, &current);
        assert_eq!(diff.0.extents.len(), 2);
        // Word granularity: each run is one 4-byte word even though only one
        // byte changed.
        assert_eq!(diff.modified_bytes(), 8);
    }

    #[test]
    fn full_page_diff_covers_everything() {
        let current = page_with(&[(1, 1), (4095, 255)]);
        let diff = Diff::full_page(&current);
        assert_eq!(diff.modified_bytes(), PAGE_SIZE);
        let mut blank = vec![0u8; PAGE_SIZE];
        diff.apply(&mut blank).unwrap();
        assert_eq!(blank, current);
    }

    #[test]
    fn apply_to_wrong_sized_buffer_fails() {
        let diff = Diff::full_page(&vec![0u8; PAGE_SIZE]);
        let mut short = vec![0u8; 100];
        assert_eq!(diff.apply(&mut short), Err(MemError::BadPageLength(100)));
    }

    #[test]
    fn create_apply_round_trips_from_any_base() {
        // The roundtrip holds not only onto a copy of the twin but onto any
        // page that agrees with the twin on the unmodified words.
        let twin = page_with(&[(0, 9), (500, 1)]);
        let mut current = twin.clone();
        current[500] = 2;
        current[501] = 3;
        let diff = Diff::create(&twin, &current);
        let mut base = twin.clone();
        base[3000] = 77; // untouched word: must survive
        diff.apply(&mut base).unwrap();
        assert_eq!(base[500], 2);
        assert_eq!(base[501], 3);
        assert_eq!(base[3000], 77);
        assert_eq!(base[0], 9);
    }

    #[test]
    fn empty_diffs_are_elided_cheaply() {
        // An empty diff records no runs and costs no wire bytes.
        let twin = page_with(&[(7, 7)]);
        let diff = Diff::create(&twin, &twin);
        assert!(diff.modified_ranges().is_empty());
        assert_eq!(diff.encoded_bytes(), 0);
        assert_eq!(diff.modified_bytes(), 0);
        // Applying an empty diff is a no-op.
        let mut page = twin.clone();
        diff.apply(&mut page).unwrap();
        assert_eq!(page, twin);
    }

    #[test]
    fn disjoint_multiple_writer_diffs_apply_commutatively() {
        // Two concurrent writers of one page with disjoint modifications
        // (false sharing): their diffs must merge to the same contents in
        // either application order.
        let twin = vec![0u8; PAGE_SIZE];
        let mut by_a = twin.clone();
        by_a[0..64].fill(0xAA);
        let mut by_b = twin.clone();
        by_b[2048..2112].fill(0xBB);
        let da = Diff::create(&twin, &by_a);
        let db = Diff::create(&twin, &by_b);

        let mut ab = twin.clone();
        da.apply(&mut ab).unwrap();
        db.apply(&mut ab).unwrap();
        let mut ba = twin.clone();
        db.apply(&mut ba).unwrap();
        da.apply(&mut ba).unwrap();
        assert_eq!(ab, ba, "disjoint diffs must commute");
        assert_eq!(&ab[0..64], &[0xAA; 64][..]);
        assert_eq!(&ab[2048..2112], &[0xBB; 64][..]);
    }

    #[test]
    fn block_scan_matches_a_word_by_word_reference() {
        // The 8-byte-block scan must produce the exact encoding of the plain
        // word-by-word state machine, including runs that straddle block
        // boundaries, start mid-block or cover exactly one word of a block.
        fn reference(twin: &[u8], current: &[u8]) -> Diff {
            let mut extents = Vec::new();
            let mut payload = Vec::new();
            let mut close = |start: usize, end: usize| {
                extents.push(Extent { offset: start as u16, len: (end - start) as u16 });
                payload.extend_from_slice(&current[start..end]);
            };
            let mut run_start: Option<usize> = None;
            for word in 0..PAGE_SIZE / WORD {
                let lo = word * WORD;
                let differs = twin[lo..lo + WORD] != current[lo..lo + WORD];
                match (differs, run_start) {
                    (true, None) => run_start = Some(lo),
                    (false, Some(start)) => {
                        close(start, lo);
                        run_start = None;
                    }
                    _ => {}
                }
            }
            if let Some(start) = run_start {
                close(start, PAGE_SIZE);
            }
            Diff(Arc::new(Encoded { extents: extents.into(), payload: payload.into() }))
        }
        // A deterministic pseudo-random page pair with edits of many shapes.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..16 {
            let twin: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
            let mut current = twin.clone();
            for _ in 0..40 {
                let at = (next() as usize) % PAGE_SIZE;
                let len = 1 + (next() as usize) % 24;
                for b in current[at..(at + len).min(PAGE_SIZE)].iter_mut() {
                    *b = b.wrapping_add(1 + (next() as u8 % 3));
                }
            }
            assert_eq!(Diff::create(&twin, &current), reference(&twin, &current));
        }
        // Edge shapes: first word, last word, a lone second-word-of-block.
        let twin = vec![0u8; PAGE_SIZE];
        for edit in [0usize, PAGE_SIZE - 1, 4, PAGE_SIZE - 5] {
            let mut current = twin.clone();
            current[edit] = 1;
            assert_eq!(Diff::create(&twin, &current), reference(&twin, &current));
        }
        // The extremes of the run count: every other word (the most runs a
        // page can hold, in both phases) and every word (one run).
        for (first, step) in [(0, 2), (1, 2), (0, 1)] {
            let mut current = twin.clone();
            for word in (first..PAGE_SIZE / WORD).step_by(step) {
                current[word * WORD] = 1;
            }
            let diff = Diff::create(&twin, &current);
            assert_eq!(diff, reference(&twin, &current));
            assert_eq!(diff.0.extents.len(), if step == 2 { MAX_RUNS } else { 1 });
        }
    }

    #[test]
    fn modified_ranges_mirror_the_runs() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut current = twin.clone();
        current[16..32].fill(7);
        current[2048] = 1;
        let diff = Diff::create(&twin, &current);
        assert_eq!(diff.modified_ranges(), vec![(16, 32), (2048, 2052)]);
        assert!(Diff::create(&twin, &twin).modified_ranges().is_empty());
        assert_eq!(Diff::full_page(&twin).modified_ranges(), vec![(0, PAGE_SIZE as u32)]);
    }

    #[test]
    fn display_mentions_runs() {
        let twin = vec![0u8; PAGE_SIZE];
        let current = page_with(&[(8, 1)]);
        let d = Diff::create(&twin, &current);
        assert!(d.to_string().contains("1 runs"));
    }
}
