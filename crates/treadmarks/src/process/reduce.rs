//! Reductions: a commutative accumulation summed up the barrier tree and
//! cut down it by who reads what, installed as raw bytes.

use std::cmp::Ordering;
use std::ops::Range;

use msgnet::Port;
use pagedmem::AddrRange;

use super::barrier::{in_subtree, serve_in_arrival_order, tree_children, MASTER};
use super::Process;
use crate::message::TmkMessage;

/// A sparse partial or total: `(word, value)` pairs ascending by word, no
/// value zero.
type Words = Vec<(u32, u64)>;

/// The wrapping sum of two sparse word lists, zero sums left out. The
/// result depends only on the two sums, so a node that adds its children's
/// arrivals in whatever order the host delivered them builds the same list.
fn add(a: &[(u32, u64)], b: &[(u32, u64)]) -> Words {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(&&(wa, va)), Some(&&(wb, vb))) => match wa.cmp(&wb) {
                Ordering::Less => a.next().copied(),
                Ordering::Greater => b.next().copied(),
                Ordering::Equal => {
                    a.next();
                    b.next();
                    Some((wa, va.wrapping_add(vb)))
                }
            },
            (Some(_), None) => a.next().copied(),
            (None, _) => b.next().copied(),
        };
        match next {
            Some(pair) if pair.1 != 0 => out.push(pair),
            Some(_) => {}
            None => return out,
        }
    }
}

/// The word indices of `section` that `ranges` cover, coalesced (a word
/// covered in part counts).
fn word_ranges<'a>(
    section: AddrRange,
    ranges: impl IntoIterator<Item = &'a AddrRange>,
) -> Vec<Range<usize>> {
    let base = section.start().as_usize();
    let inside = ranges.into_iter().filter_map(|r| r.intersect(&section)).collect();
    AddrRange::coalesce(inside)
        .into_iter()
        .map(|r| (r.start().as_usize() - base) / 8..(r.end().as_usize() - base).div_ceil(8))
        .collect()
}

/// The pairs of `words` inside `ranges` (ascending and disjoint).
fn within(words: &[(u32, u64)], ranges: &[Range<usize>]) -> Words {
    let mut ranges = ranges.iter().peekable();
    words
        .iter()
        .copied()
        .filter(|&(word, _)| {
            let word = word as usize;
            while ranges.next_if(|r| r.end <= word).is_some() {}
            ranges.peek().is_some_and(|r| r.start <= word)
        })
        .collect()
}

impl Process {
    /// The run-time primitive underneath a compiled reduction: sums every
    /// processor's `partial` — one `u64` per word of `section`, added with
    /// wrapping addition — and adds to this processor's copy of `section`
    /// the totals of the words `wants[me]` covers.
    ///
    /// The partials ride the barrier tree up as `(word, delta)` pairs of
    /// their nonzero words, summed at every hop, so the root holds the
    /// totals. They come back down cut by subtree: a departure carries only
    /// the totals of the words its subtree's processors want, the way a
    /// barrier departure carries only its subtree's share of the routed
    /// requests — a reduce-scatter, not an allreduce. Each node adds its own
    /// words into its copy as raw bytes, the way a push installs: no
    /// interval ends, and no notice, twin or diff is made. The hops are
    /// charged as the barrier's are — `per_child` a served arrival, the
    /// first departure copy `per_child` after the last, each further one a
    /// broadcast gap — and then the barrier's local cost; the wire charges
    /// each message at its size.
    ///
    /// **Contract:** every processor calls it with the same `section` and
    /// `wants`, like any collective, and the addition is the only update
    /// the words see between reductions — nothing else writes them, and
    /// nothing flushes an interval that could ship them as a diff. Every
    /// processor's copy of a wanted word then holds its initial value plus
    /// every total so far, which is the value.
    ///
    /// # Panics
    ///
    /// Panics if `partial` does not hold one word per word of `section` or
    /// `wants` does not name every processor.
    pub fn reduce_add(&mut self, section: AddrRange, partial: &[u64], wants: &[Vec<AddrRange>]) {
        let (n, me) = (self.nprocs(), self.proc_id());
        assert_eq!(section.len(), 8 * partial.len(), "one partial word per word of the section");
        assert_eq!(wants.len(), n, "what every processor reads");
        self.stats.barriers(1);
        let (arity, per_child, interrupt) = self.barrier;
        let children = tree_children(me, n, arity);
        let mut sum: Words =
            (0u32..).zip(partial.iter().copied()).filter(|&(_, delta)| delta != 0).collect();
        // Every arrival is collected before any is served: the service
        // order is their virtual order, and the sum depends on no order.
        let mut arrivals = Vec::with_capacity(children.len());
        for _ in &children {
            let env = self.recv_reply("a child's reduction arrival", |m| {
                matches!(m, TmkMessage::ReduceArrival { .. })
            });
            let TmkMessage::ReduceArrival { proc, words } = env.payload else { unreachable!() };
            arrivals.push((env.arrives_at, proc));
            sum = add(&sum, &words);
        }
        serve_in_arrival_order(&mut self.clock, &mut arrivals, per_child);
        let totals = if me == MASTER {
            sum
        } else {
            let arrival = TmkMessage::ReduceArrival { proc: me, words: sum };
            self.send((me - 1) / arity, Port::Reply, arrival, interrupt);
            let env = self.recv_reply("the reduction departure", |m| {
                matches!(m, TmkMessage::ReduceDeparture { .. })
            });
            self.clock.observe(env.arrives_at);
            let TmkMessage::ReduceDeparture { words } = env.payload else { unreachable!() };
            words
        };
        for (k, &child) in children.iter().enumerate() {
            let subtree = (0..n).filter(|&q| in_subtree(q, child, arity)).flat_map(|q| &wants[q]);
            let words = within(&totals, &word_ranges(section, subtree));
            self.clock.advance(if k == 0 { per_child } else { self.cost.broadcast_extra_cost(1) });
            self.send(child, Port::Reply, TmkMessage::ReduceDeparture { words }, interrupt);
        }
        let mine = within(&totals, &word_ranges(section, &wants[me]));
        if !mine.is_empty() {
            let node = self.node.unleased();
            let mut table = node.table();
            for (word, total) in mine {
                let addr = section.start().offset(8 * word as usize);
                let mut bytes = [0u8; 8];
                table.read_bytes(addr, &mut bytes);
                let value = u64::from_le_bytes(bytes).wrapping_add(total);
                table.install_bytes(addr, &value.to_le_bytes());
            }
        }
        self.clock.advance(self.cost.barrier_local_cost());
    }
}

#[cfg(test)]
mod tests {
    use pagedmem::Addr;

    use super::*;

    #[test]
    fn sparse_sums_wrap_and_drop_zeros_in_any_order() {
        let a = [(1, 5), (3, u64::MAX), (7, 2)];
        let b = [(0, 1), (3, 1), (7, 3), (9, 4)];
        let expected = vec![(0, 1), (1, 5), (7, 5), (9, 4)];
        assert_eq!(add(&a, &b), expected);
        assert_eq!(add(&b, &a), expected);
        assert_eq!(add(&a, &[]), a);
        assert!(add(&[], &[]).is_empty());
    }

    #[test]
    fn a_departure_carries_only_the_wanted_words() {
        let section = AddrRange::new(Addr::new(4096), 8 * 16);
        let at = |word: usize, words: usize| AddrRange::new(Addr::new(4096 + 8 * word), 8 * words);
        // Overlapping, unsorted and partly outside the section; a word
        // covered in part counts.
        let wants = [at(6, 3), AddrRange::new(Addr::new(4096 - 64), 72), at(2, 5), at(14, 4)];
        assert_eq!(word_ranges(section, &wants), [0..1, 2..9, 14..16]);
        let partial = AddrRange::new(Addr::new(4096 + 8 * 10 + 4), 2);
        assert_eq!(word_ranges(section, &[partial]), [Range { start: 10, end: 11 }]);
        let totals = [(0, 1), (1, 2), (2, 3), (8, 4), (9, 5), (15, 6)];
        assert_eq!(
            within(&totals, &word_ranges(section, &wants)),
            [(0, 1), (2, 3), (8, 4), (15, 6)]
        );
        assert!(within(&totals, &[]).is_empty());
    }
}
