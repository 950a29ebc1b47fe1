//! Message envelopes.

use sp2model::VirtualTime;

use crate::NodeId;

/// The reliable-delivery header carried by every inter-node message when
/// fault injection is enabled (and by none when it is off — keeping the
/// fault-free wire format byte-identical to a build without the layer).
///
/// On the modelled wire the header costs [`RELIA_HEADER_BYTES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliaHeader {
    /// Per-(link, port) sequence number, assigned at send time. Drives the
    /// receiver's dedup window and resequencing buffer. Deliberately *not*
    /// used to key fault decisions — see the `fault` module docs.
    pub seq: u64,
    /// Set by the fault plan when this message should be delivered behind
    /// later same-link traffic; the receiver's reorder stage defers it.
    pub laggard: bool,
}

/// Modelled wire cost of the header a real ARQ carries: 8 bytes of sequence
/// number plus 4 bytes of piggybacked cumulative ack. The simulation resolves
/// retransmissions at send time from the fault plan, so it keeps no ack
/// state; the bytes are charged all the same (the laggard flag is a
/// simulation artefact, not a wire field).
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
    /// payload is not serialized). Includes [`RELIA_HEADER_BYTES`] when a
    /// header is attached.
    pub payload_bytes: usize,
    /// Reliable-delivery header; `None` when fault injection is off or for
    /// self-sends and control messages, which bypass the delivery layer.
    pub relia: Option<ReliaHeader>,
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
            relia: None,
            payload: 42u32,
        };
        assert_eq!(e.payload, 42);
        assert!(e.arrives_at > e.sent_at);
    }

    #[test]
    fn header_carries_seq() {
        let h = ReliaHeader { seq: 3, laggard: false };
        let e = Envelope {
            src: NodeId(1),
            dst: NodeId(0),
            sent_at: VirtualTime::ZERO,
            arrives_at: VirtualTime::from_micros(90),
            payload_bytes: 8 + RELIA_HEADER_BYTES,
            relia: Some(h),
            payload: (),
        };
        assert_eq!(e.relia.unwrap().seq, 3);
    }
}
