//! Per-node virtual clocks.

use crate::VirtualTime;

/// A per-node virtual clock.
///
/// Every simulated processor owns one `VirtualClock`. The clock advances when
/// local work is charged to it ([`advance`](Self::advance)) and is merged with
/// the timestamp carried by an incoming message
/// ([`observe`](Self::observe)): the receive time is the maximum of the local
/// time and the sender's time plus the modelled network latency, exactly like
/// a Lamport clock over a latency-weighted happens-before relation.
///
/// Speedups reported by the benchmark harness are computed as the
/// uniprocessor virtual time divided by the maximum final clock value over
/// all nodes.
///
/// ```
/// use sp2model::{VirtualClock, VirtualTime};
///
/// let mut receiver = VirtualClock::new();
/// receiver.advance(VirtualTime::from_micros(10));
/// // A message sent at t=100us arriving with 180us latency.
/// receiver.observe(VirtualTime::from_micros(100) + VirtualTime::from_micros(180));
/// assert_eq!(receiver.now(), VirtualTime::from_micros(280));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now: VirtualTime,
    /// Time spent blocked waiting for remote events (idle / wait time).
    waited: VirtualTime,
    /// Time spent on local computation (as opposed to protocol overhead).
    computed: VirtualTime,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// The current local virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Advances the clock by `cost` of protocol or system overhead.
    pub fn advance(&mut self, cost: VirtualTime) {
        self.now += cost;
    }

    /// Advances the clock by `cost` of application computation and records it
    /// separately so overhead breakdowns can be reported.
    pub fn advance_compute(&mut self, cost: VirtualTime) {
        self.now += cost;
        self.computed += cost;
    }

    /// Merges an event that becomes visible to this node at absolute time
    /// `event_time` (sender timestamp plus latency). If the event is in the
    /// local future the difference is accounted as wait time.
    pub fn observe(&mut self, event_time: VirtualTime) {
        if event_time > self.now {
            self.waited += event_time - self.now;
            self.now = event_time;
        }
    }

    /// Total time this node spent waiting on remote events.
    pub fn waited(&self) -> VirtualTime {
        self.waited
    }

    /// Total time this node spent in application computation.
    pub fn computed(&self) -> VirtualTime {
        self.computed
    }

    /// Protocol/system overhead: everything that is neither computation nor
    /// waiting.
    pub fn overhead(&self) -> VirtualTime {
        self.now.saturating_sub(self.computed + self.waited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = VirtualClock::new();
        c.advance(VirtualTime::from_micros(5));
        c.advance(VirtualTime::from_micros(7));
        assert_eq!(c.now(), VirtualTime::from_micros(12));
    }

    #[test]
    fn observe_only_moves_forward() {
        let mut c = VirtualClock::new();
        c.advance(VirtualTime::from_micros(100));
        c.observe(VirtualTime::from_micros(50));
        assert_eq!(c.now(), VirtualTime::from_micros(100));
        assert_eq!(c.waited(), VirtualTime::ZERO);
        c.observe(VirtualTime::from_micros(130));
        assert_eq!(c.now(), VirtualTime::from_micros(130));
        assert_eq!(c.waited(), VirtualTime::from_micros(30));
    }

    #[test]
    fn compute_and_overhead_breakdown() {
        let mut c = VirtualClock::new();
        c.advance_compute(VirtualTime::from_micros(40));
        c.advance(VirtualTime::from_micros(10));
        c.observe(VirtualTime::from_micros(70));
        assert_eq!(c.computed(), VirtualTime::from_micros(40));
        assert_eq!(c.waited(), VirtualTime::from_micros(20));
        assert_eq!(c.overhead(), VirtualTime::from_micros(10));
        assert_eq!(c.now(), VirtualTime::from_micros(70));
    }
}
