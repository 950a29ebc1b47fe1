//! `Push`: the point-to-point data exchange that replaces a barrier in a
//! fully analyzable phase.

use std::collections::HashSet;

use msgnet::Port;
use pagedmem::AddrRange;

use super::race::detect_push_races_locked;
use super::Process;
use crate::message::TmkMessage;
use crate::types::ProcId;

impl Process {
    /// Point-to-point data exchange replacing a barrier in a fully
    /// analyzable phase: the contents of each range in `sends` travel
    /// directly to their consumer, and one `PushData` message is awaited
    /// from every processor in `recv_from`. Received bytes are installed in
    /// place — no twins, diffs, write notices or invalidations.
    ///
    /// The exchange is batched like the barrier protocol: *one* table-lock
    /// hold reads every outgoing chunk, and after all pushes have arrived
    /// *one* hold installs everything.
    ///
    /// Each destination's ranges ship as given: coalesced, in address order.
    ///
    /// # Panics
    ///
    /// Panics if a destination or source is out of range or is this
    /// processor itself.
    pub fn push_exchange<'a>(
        &mut self,
        sends: impl IntoIterator<Item = (ProcId, &'a [AddrRange])>,
        recv_from: &[ProcId],
    ) {
        let me = self.proc_id();
        let mut sends = sends.into_iter().peekable();
        if sends.peek().is_some() {
            // One hold for every outgoing chunk read.
            type Outgoing = Vec<(ProcId, Vec<(AddrRange, Vec<u8>)>)>;
            let outgoing: Outgoing = {
                let table = self.node.lock_table();
                sends
                    .map(|(dest, ranges)| {
                        assert_ne!(dest, me, "a processor does not push to itself");
                        debug_assert!(
                            ranges.windows(2).all(|w| w[0].end() < w[1].start()),
                            "a push's ranges are coalesced and in address order"
                        );
                        (dest, ranges.iter().map(|&r| (r, table.read_range(r))).collect())
                    })
                    .collect()
            };
            for (dest, chunks) in outgoing {
                self.send(dest, Port::Reply, TmkMessage::PushData { from: me, chunks }, true);
            }
        }
        let mut outstanding: HashSet<ProcId> = recv_from.iter().copied().collect();
        assert!(!outstanding.contains(&me), "a processor does not receive its own push");
        // Observe every push before installing anything, then install the
        // whole batch under one hold.
        let mut received: Vec<(ProcId, AddrRange, Vec<u8>)> = Vec::new();
        while !outstanding.is_empty() {
            let env = self.recv_reply(
                "a peer's pushed data",
                |m| matches!(m, TmkMessage::PushData { from, .. } if outstanding.contains(from)),
            );
            self.clock.observe(env.arrives_at);
            let TmkMessage::PushData { from, chunks } = env.payload else { unreachable!() };
            outstanding.remove(&from);
            received.extend(chunks.into_iter().map(|(r, d)| (from, r, d)));
        }
        if received.is_empty() {
            return;
        }
        let mut proto = self.node.proto.lock();
        let mut table = self.node.lock_table();
        if let Some(log) = &self.run.race {
            detect_push_races_locked(&self.stats, log, &proto, &table, &received);
        }
        // Mirrored into any twin: pushed bytes are installed data, not
        // local modifications, and must not surface in a later diff (or be
        // race-flagged against the next push).
        for (_, range, data) in &received {
            proto.install_raw(&mut table, range.start(), data);
        }
    }
}

#[cfg(test)]
mod tests {
    use pagedmem::PAGE_SIZE;
    use sp2model::CostModel;

    use crate::{Dsm, DsmConfig};

    /// A reduction maps a page neither processor had: P0's later write of
    /// another word of it faults and twins after the install, so its diff
    /// reaches P1. Mapped writable, the page took the write without a
    /// fault, twin or notice, and P1 read 0.
    #[test]
    fn a_write_after_a_reduction_reaches_the_other_copy() {
        Dsm::run(DsmConfig::new(2).with_cost_model(CostModel::free()), |p| {
            let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
            let section = a.range_of(0, 1);
            p.reduce_add(section, &[1], &[vec![section], vec![section]]);
            if p.proc_id() == 0 {
                p.set(&a, 100, 7);
            }
            p.barrier();
            assert_eq!([p.get(&a, 0), p.get(&a, 100)], [2, 7], "P{}", p.proc_id());
        });
    }

    /// So does a push: P1 never mapped the page P0 pushes it a word of, and
    /// its own later write of another word reaches P0 at the barrier.
    #[test]
    fn a_write_after_a_push_reaches_the_pusher() {
        Dsm::run(DsmConfig::new(2).with_cost_model(CostModel::free()), |p| {
            let a = p.alloc_array::<u32>(PAGE_SIZE / 4);
            if p.proc_id() == 0 {
                p.set(&a, 0, 5);
                p.push_exchange([(1, &[a.range_of(0, 1)][..])], &[]);
            } else {
                p.push_exchange([], &[0]);
                p.set(&a, 100, 9);
            }
            p.barrier();
            assert_eq!([p.get(&a, 0), p.get(&a, 100)], [5, 9], "P{}", p.proc_id());
        });
    }

    /// A push onto a page whose older history the receiver has not fetched
    /// would land on a copy without it (P1 would read word 100 as 0, not
    /// 5): debug builds refuse the install and name what it misses.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "misses P0's interval 1")]
    fn a_push_onto_a_page_with_unfetched_history_panics_in_debug_builds() {
        Dsm::run(DsmConfig::new(2).with_cost_model(CostModel::free()), |p| {
            let a = p.alloc_array::<u32>(PAGE_SIZE / 4);
            if p.proc_id() == 0 {
                p.set(&a, 100, 5);
            }
            p.barrier();
            if p.proc_id() == 0 {
                p.set(&a, 0, 1);
                p.push_exchange([(1, &[a.range_of(0, 1)][..])], &[]);
            } else {
                p.push_exchange([], &[0]);
                assert_eq!([p.get(&a, 0), p.get(&a, 100)], [1, 5]);
            }
        });
    }
}
