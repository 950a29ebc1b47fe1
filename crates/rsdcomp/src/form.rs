//! Closed forms of the symbolic spans over one cluster's block distribution.
//!
//! A [`ColSpan`] names columns relative to a processor: its own block, the
//! block a fixed offset away, either widened by a halo and clipped to a
//! column window, or one fixed range on a set of processors. [`Form`] is that
//! function of the processor id for one cluster width and one iteration — a
//! handful of integers, whatever the width — and answers the compiler's two
//! questions in constant time: what one processor's span is ([`Form::at`]),
//! and which processors' spans meet a column range ([`Form::holders`]).
//!
//! Whether *some* processor's span meets *another* processor's is a
//! question about every processor at once. Away from a few landmarks (the
//! first and last processors, the first of the shorter blocks, the
//! processors at a clip's edges and at the ends of a fixed span's
//! processor set) every processor sees the same neighbourhood shifted by
//! one block, so [`probes`] names a bounded set of processors that answers
//! it exactly: the landmarks' neighbourhoods and the first processor of
//! every run between them.

use std::ops::Range;

use pagedmem::AddrRange;
use treadmarks::ProcId;

use crate::ir::{col_block, ArrayDecl, ColSpan};

/// The processor owning column `col` (`col < cols`) under the block
/// distribution of `cols` columns over `nprocs` processors ([`col_block`]).
fn owner(cols: usize, nprocs: usize, col: usize) -> ProcId {
    let (base, extra) = (cols / nprocs, cols % nprocs);
    let long = extra * (base + 1);
    if col < long {
        col / (base + 1)
    } else {
        extra + (col - long) / base
    }
}

/// What a [`Form`] is at each processor.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    /// `clip ∩ [lo − widen, hi + widen)` where `lo..hi` is the block of the
    /// processor's anchor (its id plus `offset`, modulo the width under
    /// `wrap`, none outside it without); empty when that block misses
    /// `core`.
    Block { offset: isize, wrap: bool, widen: usize, core: Range<usize>, clip: Range<usize> },
    /// `cols` on every processor of `procs`, nothing elsewhere.
    Fixed { cols: Range<usize>, procs: Range<usize> },
}

/// A span's value at every processor of one cluster, for one iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Form {
    /// The array's columns.
    cols: usize,
    nprocs: usize,
    shape: Shape,
}

/// A set of processors: at most two ranges (a ring's run wraps once).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Procs([Range<usize>; 2]);

impl Procs {
    fn one(r: Range<usize>) -> Procs {
        Procs([r, 0..0])
    }

    pub(crate) fn len(&self) -> usize {
        self.0.iter().map(Range::len).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every member, in ascending order within each range.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.0.iter().flat_map(Range::clone)
    }

    /// Whether the set holds a processor other than `p`.
    pub(crate) fn has_other_than(&self, p: ProcId) -> bool {
        match self.len() {
            0 => false,
            1 => !self.0.iter().any(|r| r.contains(&p)),
            _ => true,
        }
    }
}

fn meet(a: &Range<usize>, b: &Range<usize>) -> Range<usize> {
    a.start.max(b.start)..a.end.min(b.end)
}

impl Form {
    /// The closed form of `span` over an array of `cols` columns on
    /// `nprocs` processors at loop iteration `iter`; `None` for
    /// [`ColSpan::Unknown`]. Equal to [`ColSpan::eval`] at every processor.
    pub(crate) fn of(span: ColSpan, cols: usize, nprocs: usize, iter: usize) -> Option<Form> {
        #[cfg(test)]
        FORMS.with(|n| n.set(n.get() + 1));
        let block = |offset, wrap, widen, core: Range<usize>, clip| Shape::Block {
            offset,
            wrap,
            widen,
            core,
            clip,
        };
        let all = 0..cols;
        // The fixed boundary columns 0 and `cols - 1` are never updated.
        let update = 1..cols.saturating_sub(1).max(1);
        let shape = match span {
            ColSpan::OwnBlock => block(0, false, 0, all.clone(), all),
            ColSpan::UpdateBlock | ColSpan::UpdateHalo(0) => {
                block(0, false, 0, update.clone(), update)
            }
            // The halo of a non-empty update block is its whole block
            // widened: the two differ only in a fixed boundary column, which
            // any widening covers again.
            ColSpan::UpdateHalo(h) => block(0, false, h, update, all),
            ColSpan::BlockOf { offset, wrap } => block(offset, wrap, 0, all.clone(), all),
            ColSpan::All => Shape::Fixed { cols: all, procs: 0..nprocs },
            ColSpan::Pivot => block(0, false, 0, all, iter..iter + 1),
            ColSpan::PivotReaders if iter + 1 < cols => {
                let procs = owner(cols, nprocs, iter + 1)..nprocs;
                Shape::Fixed { cols: iter..iter + 1, procs }
            }
            ColSpan::PivotReaders => Shape::Fixed { cols: 0..0, procs: 0..0 },
            ColSpan::OwnTail => block(0, false, 0, all, (iter + 1).min(cols)..cols),
            ColSpan::Unknown => return None,
        };
        Some(Form { cols, nprocs, shape })
    }

    /// The anchor of processor `p`.
    fn anchor(&self, p: ProcId, offset: isize, wrap: bool) -> Option<ProcId> {
        let n = self.nprocs as isize;
        let a = p as isize + offset;
        if wrap {
            Some(a.rem_euclid(n) as ProcId)
        } else {
            (0..n).contains(&a).then_some(a as ProcId)
        }
    }

    /// The anchors whose blocks meet `core` and, widened by `widen`, meet
    /// `cols`.
    fn anchors(&self, widen: usize, core: &Range<usize>, cols: &Range<usize>) -> Range<usize> {
        let (c, n) = (self.cols, self.nprocs);
        let cols = meet(cols, &(0..c));
        if cols.is_empty() || core.is_empty() || core.start >= c {
            return 0..0;
        }
        let lo = owner(c, n, cols.start.saturating_sub(widen)).max(owner(c, n, core.start));
        let hi = owner(c, n, (cols.end + widen).min(c) - 1).min(owner(c, n, core.end.min(c) - 1));
        lo..hi + 1
    }

    /// The processors whose anchors lie in `anchors`.
    fn anchored(&self, anchors: Range<usize>, offset: isize, wrap: bool) -> Procs {
        let n = self.nprocs as isize;
        if anchors.is_empty() {
            return Procs::default();
        }
        let (lo, hi) = (anchors.start as isize - offset, anchors.end as isize - offset);
        if !wrap {
            return Procs::one(lo.clamp(0, n) as usize..hi.clamp(0, n) as usize);
        }
        if anchors.len() >= self.nprocs {
            return Procs::one(0..self.nprocs);
        }
        let start = lo.rem_euclid(n) as usize;
        let end = start + anchors.len();
        if end <= self.nprocs {
            Procs::one(start..end)
        } else {
            Procs([start..self.nprocs, 0..end - self.nprocs])
        }
    }

    /// The columns of processor `p`'s span (empty when it has none).
    pub(crate) fn at(&self, p: ProcId) -> Range<usize> {
        match &self.shape {
            Shape::Fixed { cols, procs } if procs.contains(&p) => cols.clone(),
            Shape::Fixed { .. } => 0..0,
            Shape::Block { offset, wrap, widen, core, clip } => {
                let Some(a) = self.anchor(p, *offset, *wrap) else { return 0..0 };
                let own = col_block(self.cols, self.nprocs, a);
                if meet(&own, core).is_empty() {
                    return 0..0;
                }
                meet(&(own.start.saturating_sub(*widen)..own.end + widen), clip)
            }
        }
    }

    /// Every processor whose span meets `cols`: exactly those, in constant
    /// time.
    pub(crate) fn holders(&self, cols: &Range<usize>) -> Procs {
        match &self.shape {
            Shape::Fixed { cols: mine, procs } if !meet(mine, cols).is_empty() => {
                Procs::one(procs.clone())
            }
            Shape::Fixed { .. } => Procs::default(),
            Shape::Block { offset, wrap, widen, core, clip } => {
                self.anchored(self.anchors(*widen, core, &meet(clip, cols)), *offset, *wrap)
            }
        }
    }

    /// The union of every processor's span, which is one range.
    pub(crate) fn hull(&self) -> Range<usize> {
        match &self.shape {
            Shape::Fixed { cols, procs } if !procs.is_empty() => cols.clone(),
            Shape::Fixed { .. } => 0..0,
            Shape::Block { offset, wrap, widen, core, clip } => {
                let n = self.nprocs as isize;
                let reachable = if *wrap {
                    0..self.nprocs
                } else {
                    (*offset).clamp(0, n) as usize..(n + offset).clamp(0, n) as usize
                };
                let anchors = meet(&reachable, &self.anchors(*widen, core, clip));
                if anchors.is_empty() {
                    return 0..0;
                }
                let first = col_block(self.cols, self.nprocs, anchors.start);
                let last = col_block(self.cols, self.nprocs, anchors.end - 1);
                meet(&(first.start.saturating_sub(*widen)..last.end + widen), clip)
            }
        }
    }

    /// Whether this span holds `other`'s at every processor: the same
    /// widened block, asked of no narrower a core and clipped no narrower.
    pub(crate) fn covers(&self, other: &Form) -> bool {
        let within = |inner: &Range<usize>, outer: &Range<usize>| {
            outer.start <= inner.start && inner.end <= outer.end
        };
        if (self.cols, self.nprocs) != (other.cols, other.nprocs) {
            return false;
        }
        match (&self.shape, &other.shape) {
            (
                Shape::Block { offset, wrap, widen, core, clip },
                Shape::Block { offset: o, wrap: w, widen: h, core: c, clip: k },
            ) => (offset, wrap, widen) == (o, w, h) && within(c, core) && within(k, clip),
            (mine, theirs) => mine == theirs,
        }
    }

    /// How far, in processors, the span reaches from its own processor: its
    /// offset plus its widening (a block has at least one column).
    pub(crate) fn reach(&self) -> usize {
        match &self.shape {
            Shape::Block { offset, widen, .. } => offset.unsigned_abs() + widen,
            Shape::Fixed { .. } => 0,
        }
    }

    /// Appends the processors where the span's neighbourhood stops being a
    /// shifted copy of its neighbour's: the edges of the cluster, the first
    /// shorter block, the blocks holding a clip's or core's edge columns, the
    /// ends of a fixed span's processor set — each also as seen through the
    /// anchor offset.
    pub(crate) fn landmarks(&self, out: &mut Vec<ProcId>) {
        let (c, n) = (self.cols, self.nprocs);
        let owner_of = |col: usize| owner(c, n, col.min(c - 1));
        let mut cols = vec![0, c - 1];
        let mut procs = vec![0, n - 1, (c % n).min(n - 1), (c % n).saturating_sub(1)];
        let offset = match &self.shape {
            Shape::Block { offset, core, clip, .. } => {
                cols.extend([core.start, core.end, clip.start, clip.end]);
                *offset
            }
            Shape::Fixed { cols: fixed, procs: set } => {
                cols.extend([fixed.start, fixed.end]);
                procs.extend([set.start.min(n - 1), set.end.saturating_sub(1).min(n - 1)]);
                0
            }
        };
        procs.extend(
            cols.into_iter().flat_map(|col| [owner_of(col), owner_of(col.saturating_sub(1))]),
        );
        let shifted = procs.iter().map(|&p| (p as isize - offset).rem_euclid(n as isize) as ProcId);
        let shifted: Vec<ProcId> = shifted.collect();
        out.extend(procs);
        out.extend(shifted);
    }
}

/// The processors that decide "does some member `p` of `candidates` have
/// a property" exactly, when the property is a shifted copy of itself from
/// one processor to the next wherever no landmark lies within `radius`:
/// every candidate within `radius + 1` of a landmark, and the first of
/// every range of candidates. A run of candidates farther from every
/// landmark begins at one of those, and every member of the run answers as
/// its first does. Ascending, each once.
pub(crate) fn probes(
    candidates: &Procs,
    landmarks: &mut Vec<ProcId>,
    radius: usize,
) -> Vec<ProcId> {
    landmarks.sort_unstable();
    landmarks.dedup();
    let mut out = Vec::new();
    for range in candidates.0.iter().filter(|r| !r.is_empty()) {
        out.push(range.start);
        for &l in landmarks.iter() {
            let window = meet(range, &(l.saturating_sub(radius + 1)..l + radius + 2));
            out.extend(window);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The columns of `decl` that share a byte with `bytes`.
pub(crate) fn cols_touching(decl: &ArrayDecl, bytes: &AddrRange) -> Range<usize> {
    let col_bytes = decl.rows * decl.elem_bytes;
    let base = decl.base.as_usize();
    let end = base + decl.cols * col_bytes;
    let (lo, hi) = (bytes.start().as_usize().max(base), bytes.end().as_usize().min(end));
    if col_bytes == 0 || lo >= hi {
        return 0..0;
    }
    (lo - base) / col_bytes..(hi - base).div_ceil(col_bytes)
}

/// Whether the closed forms of `a` and `b` move together: their bytes
/// never meet, or both shift by the same bytes from one processor to the
/// next (the same column count and width). Two differently shaped views of
/// one buffer relate by no processor offset.
pub(crate) fn aligned(a: &ArrayDecl, b: &ArrayDecl) -> bool {
    let extent = |d: &ArrayDecl| d.col_range(0, d.cols);
    let same = a.cols == b.cols && a.rows * a.elem_bytes == b.rows * b.elem_bytes;
    same || extent(a).intersect(&extent(b)).is_none()
}

#[cfg(test)]
thread_local! {
    /// Spans turned into closed forms on this thread (the walk's span
    /// evaluations).
    pub(crate) static FORMS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Processors the walk tried a pair question at on this thread.
    pub(crate) static PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every span kind, at iterations on either side of block edges.
    fn spans() -> Vec<ColSpan> {
        let mut out = vec![
            ColSpan::OwnBlock,
            ColSpan::UpdateBlock,
            ColSpan::All,
            ColSpan::Pivot,
            ColSpan::PivotReaders,
            ColSpan::OwnTail,
        ];
        out.extend((0..4).map(ColSpan::UpdateHalo));
        for offset in [-3, -1, 1, 2, 5] {
            out.extend([true, false].map(|wrap| ColSpan::BlockOf { offset, wrap }));
        }
        out
    }

    #[test]
    fn a_closed_form_is_the_span_at_every_processor_and_knows_who_holds_what() {
        for nprocs in 1..=9 {
            for cols in [nprocs, nprocs + 1, 2 * nprocs, 2 * nprocs + 1, 3 * nprocs + 2] {
                for span in spans() {
                    for iter in [0, 1, cols / 2, cols - 1, cols, cols + 3] {
                        let form = Form::of(span, cols, nprocs, iter).expect("affine");
                        let at: Vec<Range<usize>> = (0..nprocs)
                            .map(|p| span.eval(cols, nprocs, p, iter).expect("affine"))
                            .collect();
                        let case = format!("{span:?} at {iter}, {cols} columns, {nprocs} procs");
                        let mut hull = 0..0;
                        for (p, want) in at.iter().enumerate() {
                            let got = form.at(p);
                            assert_eq!(got.is_empty(), want.is_empty(), "{case}: P{p}");
                            if !want.is_empty() {
                                assert_eq!(&got, want, "{case}: P{p}");
                                hull = if hull.is_empty() {
                                    want.clone()
                                } else {
                                    hull.start.min(want.start)..hull.end.max(want.end)
                                };
                            }
                        }
                        assert_eq!(form.hull().is_empty(), hull.is_empty(), "{case}: hull");
                        if !hull.is_empty() {
                            assert_eq!(form.hull(), hull, "{case}: hull");
                        }
                        for lo in 0..cols {
                            for hi in lo + 1..=cols {
                                let mut got: Vec<ProcId> = form.holders(&(lo..hi)).iter().collect();
                                got.sort_unstable();
                                let want: Vec<ProcId> = (0..nprocs)
                                    .filter(|&p| !meet(&at[p], &(lo..hi)).is_empty())
                                    .collect();
                                assert_eq!(got, want, "{case}: holders of {lo}..{hi}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cols_touching_names_every_column_a_byte_range_shares_a_byte_with() {
        let decl = ArrayDecl {
            name: "a",
            base: pagedmem::Addr::new(100),
            rows: 2,
            cols: 5,
            elem_bytes: 4,
        };
        let bytes = |lo, len| AddrRange::new(pagedmem::Addr::new(lo), len);
        assert_eq!(cols_touching(&decl, &bytes(100, 8)), 0..1);
        assert_eq!(cols_touching(&decl, &bytes(107, 2)), 0..2);
        assert_eq!(cols_touching(&decl, &bytes(0, 1000)), 0..5);
        assert!(cols_touching(&decl, &bytes(0, 100)).is_empty());
        assert!(cols_touching(&decl, &bytes(140, 8)).is_empty());
    }
}
