//! `Push`: the point-to-point data exchange that replaces a barrier in a
//! fully analyzable phase.

use std::collections::HashSet;

use msgnet::Port;
use pagedmem::AddrRange;

use super::access::warm_ranges_locked;
use super::race::detect_push_races_locked;
use super::Process;
use crate::message::TmkMessage;
use crate::types::ProcId;

impl Process {
    /// Point-to-point data exchange replacing a barrier in a fully
    /// analyzable phase: the contents of each range in `sends` travel
    /// directly to their consumer, and one `PushData` message is awaited
    /// from every processor in `recv_from`. Received bytes are installed in
    /// place — no twins, diffs, write notices or invalidations. A cached
    /// mapping of an installed page keeps serving: the install returned its
    /// lease and wrote into the very frame the entry names.
    ///
    /// The exchange is batched like the barrier protocol: *one* table-lock
    /// hold reads every outgoing chunk, and after all pushes have arrived
    /// *one* hold installs everything and caches the mappings of the
    /// received ranges.
    ///
    /// # Panics
    ///
    /// Panics if a destination or source is out of range or is this
    /// processor itself.
    pub fn push_exchange(&mut self, sends: &[(ProcId, Vec<AddrRange>)], recv_from: &[ProcId]) {
        let me = self.proc_id();
        if !sends.is_empty() {
            // One hold for every outgoing chunk read.
            type Outgoing = Vec<(ProcId, Vec<(AddrRange, Vec<u8>)>)>;
            let outgoing: Outgoing = {
                let table = self.node.unleased().table();
                sends
                    .iter()
                    .map(|&(dest, ref ranges)| {
                        assert_ne!(dest, me, "a processor does not push to itself");
                        let chunks = AddrRange::coalesce(ranges.clone())
                            .into_iter()
                            .map(|r| (r, table.read_range(r)))
                            .collect();
                        (dest, chunks)
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
        let installed = AddrRange::coalesce(received.iter().map(|&(_, r, _)| r).collect());
        // An install maps what it lands on, and every mapped page is
        // materialised (see `ProtoState::page_missing`).
        let mut node = self.node.unleased();
        let mut proto = node.proto();
        let mut table = node.table();
        proto.materialise(installed.iter().flat_map(AddrRange::pages));
        if let Some(log) = &self.run.race {
            detect_push_races_locked(&self.stats, log, &proto, &table, &received);
        }
        for (_, range, data) in received {
            // Mirrored into any twin: pushed bytes are installed data, not
            // local modifications, and must not surface in a later diff (or
            // be race-flagged against the next push).
            table.install_bytes(range.start(), &data);
        }
        warm_ranges_locked(&mut node, &table, &installed);
    }
}
