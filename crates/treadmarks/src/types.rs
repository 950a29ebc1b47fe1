//! Core protocol types: processor ids, intervals, locks and vector
//! timestamps.

use std::fmt;

/// A processor (node) index, `0..nprocs`.
pub type ProcId = usize;

/// An interval number.
///
/// A processor's execution is divided into intervals by its release
/// operations; interval numbers increase monotonically per processor and
/// interval 0 is "before any release".
pub type Interval = u32;

/// Identifies an application-level lock.
pub type LockId = u32;

/// A vector timestamp: for each processor, the most recent interval whose
/// modifications this processor has incorporated.
///
/// Vector timestamps drive lazy release consistency: at an acquire, the
/// acquirer receives write notices exactly for the intervals its timestamp
/// does not yet cover.
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct Vt(Vec<Interval>);

impl Clone for Vt {
    fn clone(&self) -> Vt {
        Vt(self.0.clone())
    }

    /// Reuses `self`'s buffer.
    fn clone_from(&mut self, source: &Vt) {
        self.0.clone_from(&source.0);
    }
}

impl Vt {
    /// The zero timestamp for `nprocs` processors.
    pub fn new(nprocs: usize) -> Vt {
        Vt(vec![0; nprocs])
    }

    /// Number of processors covered.
    pub(crate) fn width(&self) -> usize {
        self.0.len()
    }

    /// The latest interval of processor `p` that has been seen.
    pub fn get(&self, p: ProcId) -> Interval {
        self.0[p]
    }

    /// Records that intervals of processor `p` up to `interval` have been
    /// seen (monotone: never goes backwards).
    pub fn advance(&mut self, p: ProcId, interval: Interval) {
        if interval > self.0[p] {
            self.0[p] = interval;
        }
    }

    /// Lowers component `p` to `interval` if it currently exceeds it.
    ///
    /// Used when building the timestamp of a `Validate_w_sync` request: the
    /// requester's real timestamp records the notices it has *seen*, but the
    /// request must advertise the oldest interval whose diff has not been
    /// *applied* to the requested pages, so components are lowered to just
    /// below each still-missing interval.
    pub fn limit(&mut self, p: ProcId, interval: Interval) {
        if interval < self.0[p] {
            self.0[p] = interval;
        }
    }

    /// Component-wise maximum with another timestamp.
    pub fn merge(&mut self, other: &Vt) {
        assert_eq!(self.0.len(), other.0.len(), "vector timestamps must have the same width");
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            if *theirs > *mine {
                *mine = *theirs;
            }
        }
    }

    /// Whether this timestamp covers (dominates or equals) `other` in every
    /// component.
    pub fn covers(&self, other: &Vt) -> bool {
        assert_eq!(self.0.len(), other.0.len(), "vector timestamps must have the same width");
        self.0.iter().zip(&other.0).all(|(a, b)| a >= b)
    }

    /// Whether the two timestamps are concurrent under the happened-before
    /// partial order: neither covers the other.
    ///
    /// This is the race detector's core predicate. Applied to the
    /// *creating* timestamps of two intervals (the flushing processor's
    /// vector just after advancing its own component), it decides whether
    /// any release/acquire chain orders the intervals — components only
    /// advance through a processor's own flush or through full-vector
    /// merges at acquires, so `a.covers(&b)` on creating timestamps is
    /// exactly "b happened before a". Equal timestamps are *not*
    /// concurrent (they denote the same knowledge).
    pub fn concurrent(&self, other: &Vt) -> bool {
        !self.covers(other) && !other.covers(self)
    }

    /// The components in which this timestamp differs from `base` — above
    /// or below — the sparse form a timestamp travels in when both ends
    /// hold `base`. [`patch`](Self::patch) is the inverse.
    pub fn delta_from(&self, base: &Vt) -> VtDelta {
        assert_eq!(self.0.len(), base.0.len(), "vector timestamps must have the same width");
        let differing =
            self.0.iter().zip(&base.0).enumerate().filter(|(_, (mine, base))| mine != base);
        VtDelta(differing.map(|(p, (&mine, _))| (p, mine)).collect())
    }

    /// Replaces the components `delta` names: `vt.delta_from(&base)`
    /// patched onto a copy of `base` is `vt` again.
    pub fn patch(&mut self, delta: &VtDelta) {
        for &(p, interval) in &delta.0 {
            self.0[p] = interval;
        }
    }

    /// Component-wise minimum with `base` patched by `delta`, built in
    /// place: how a barrier folds the *applied* timestamps into the GC
    /// horizon, which covers `(proc, interval)` only if **every** processor
    /// has incorporated (or provably never needs) that interval.
    pub fn merge_min_patched(&mut self, base: &Vt, delta: &VtDelta) {
        assert_eq!(self.0.len(), base.0.len(), "vector timestamps must have the same width");
        let mut patch = delta.0.iter().peekable();
        for (p, (mine, &theirs)) in self.0.iter_mut().zip(&base.0).enumerate() {
            let theirs = patch.next_if(|&&(q, _)| q == p).map_or(theirs, |&(_, interval)| interval);
            *mine = (*mine).min(theirs);
        }
    }

    /// Approximate wire size in bytes (4 bytes per component).
    pub fn wire_bytes(&self) -> usize {
        self.0.len() * 4
    }

    /// Sum of all components.
    ///
    /// Used as a happens-before-compatible rank: if `a` dominates `b`
    /// componentwise (and differs), then `a.sum() > b.sum()`, so sorting
    /// diffs by the sum of their creating interval's timestamp applies
    /// causally ordered modifications in order, while concurrent ones (which
    /// the multiple-writer protocol guarantees touch disjoint words) land in
    /// an arbitrary, harmless order.
    pub fn sum(&self) -> u64 {
        self.0.iter().map(|&v| u64::from(v)).sum()
    }
}

/// A vector timestamp in transit as its difference from a base both ends
/// hold ([`Vt::delta_from`] / [`Vt::patch`]): the differing components,
/// above or below the base, as `(processor, interval)` pairs ascending.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VtDelta(Vec<(ProcId, Interval)>);

impl VtDelta {
    /// The differing components, ascending by processor.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[(ProcId, Interval)] {
        &self.0
    }

    /// Component `p` of `base` patched by the delta.
    pub(crate) fn get(&self, base: &Vt, p: ProcId) -> Interval {
        self.0.iter().find(|&&(q, _)| q == p).map_or(base.get(p), |&(_, interval)| interval)
    }

    /// Approximate wire size on a cluster of `nprocs`: the smaller of the
    /// two encodings — sparse (an entry count and eight bytes a differing
    /// component) or, where that would not pay (two processors, a long
    /// chain of acquires since the base), whole (four bytes a component).
    pub fn wire_bytes(&self, nprocs: usize) -> usize {
        (4 + self.0.len() * 8).min(nprocs * 4)
    }
}

impl fmt::Display for Vt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_is_monotone() {
        let mut vt = Vt::new(3);
        vt.advance(1, 5);
        vt.advance(1, 3);
        assert_eq!(vt.get(1), 5);
        assert_eq!(vt.get(0), 0);
    }

    #[test]
    fn merge_takes_componentwise_max() {
        let mut a = Vt::new(3);
        a.advance(0, 2);
        a.advance(2, 7);
        let mut b = Vt::new(3);
        b.advance(0, 5);
        b.advance(1, 1);
        a.merge(&b);
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(1), 1);
        assert_eq!(a.get(2), 7);
    }

    #[test]
    fn covers_is_a_partial_order() {
        let mut a = Vt::new(2);
        a.advance(0, 3);
        a.advance(1, 3);
        let mut b = Vt::new(2);
        b.advance(0, 2);
        b.advance(1, 3);
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert!(a.covers(&a));
        // Incomparable pair.
        let mut c = Vt::new(2);
        c.advance(0, 9);
        assert!(!c.covers(&b));
        assert!(!b.covers(&c));
    }

    #[test]
    fn concurrent_covers_equal_ordered_and_incomparable_pairs() {
        // Equal: same knowledge, not concurrent.
        let mut a = Vt::new(2);
        a.advance(0, 3);
        a.advance(1, 1);
        assert!(!a.concurrent(&a.clone()));
        // Ordered either way: not concurrent.
        let mut b = a.clone();
        b.advance(1, 5);
        assert!(!a.concurrent(&b));
        assert!(!b.concurrent(&a));
        // Incomparable: concurrent, symmetrically.
        let mut c = Vt::new(2);
        c.advance(0, 9);
        assert!(b.concurrent(&c));
        assert!(c.concurrent(&b));
        // The zero timestamp is covered by everything.
        assert!(!a.concurrent(&Vt::new(2)));
    }

    #[test]
    fn display_and_wire_size() {
        let mut vt = Vt::new(3);
        vt.advance(0, 1);
        assert_eq!(vt.to_string(), "<1,0,0>");
        assert_eq!(vt.wire_bytes(), 12);
        assert_eq!(vt.width(), 3);
    }

    #[test]
    #[should_panic]
    fn merging_mismatched_widths_panics() {
        let mut a = Vt::new(2);
        a.merge(&Vt::new(3));
    }

    #[test]
    fn patching_in_place_is_patching_a_copy() {
        let mut base = Vt::new(4);
        base.advance(1, 5);
        base.advance(3, 2);
        let mut vt = base.clone();
        vt.advance(0, 7);
        vt.limit(1, 3);
        let delta = vt.delta_from(&base);
        let mut patched = base.clone();
        patched.patch(&delta);
        assert_eq!(patched, vt);
        let mut low = Vt::new(4);
        low.advance(0, 9);
        low.advance(1, 9);
        low.advance(2, 1);
        let expected: Vec<Interval> = (0..4).map(|p| low.get(p).min(vt.get(p))).collect();
        low.merge_min_patched(&base, &delta);
        assert_eq!((0..4).map(|p| low.get(p)).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn merge_min_takes_componentwise_min() {
        let mut a = Vt::new(3);
        a.advance(0, 2);
        a.advance(1, 4);
        a.advance(2, 7);
        let mut b = Vt::new(3);
        b.advance(0, 5);
        b.advance(1, 1);
        b.advance(2, 7);
        a.merge_min_patched(&b, &VtDelta::default());
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 1);
        assert_eq!(a.get(2), 7);
    }
}
