//! Message envelopes.

use sp2model::VirtualTime;

use crate::NodeId;

/// Modelled wire cost of the header a real ARQ carries on every inter-node
/// message when fault injection is on: 8 bytes of sequence number plus 4
/// bytes of piggybacked cumulative ack. The simulation resolves
/// retransmissions, duplicates and reorders at send time from the fault
/// plan, so it keeps no sequence or ack state; the bytes are charged all the
/// same. With faults off nothing is charged.
pub const RELIA_HEADER_BYTES: usize = 12;

/// A message in flight: the payload plus the metadata needed for virtual-time
/// accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Virtual time at which the sender issued the message.
    pub sent_at: VirtualTime,
    /// Virtual time at which the message becomes visible to the receiver
    /// (send time plus modelled latency for the payload size).
    pub arrives_at: VirtualTime,
    /// Modelled payload size in bytes (used for statistics; the in-memory
    /// payload is not serialized). Includes [`RELIA_HEADER_BYTES`] on an
    /// inter-node message when fault injection is on.
    pub payload_bytes: usize,
    /// The payload itself.
    pub payload: M,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_is_plain_data() {
        let e = Envelope {
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: VirtualTime::from_micros(1),
            arrives_at: VirtualTime::from_micros(200),
            payload_bytes: 4,
            payload: 42u32,
        };
        assert_eq!(e.payload, 42);
        assert!(e.arrives_at > e.sent_at);
    }
}
