//! Clusters of endpoints connected by in-process channels.
//!
//! An endpoint is a thin wrapper over the per-port channels: `send` stamps an
//! [`Envelope`] with its modelled arrival time and enqueues it, `recv` pops.
//! With a [`NetFaults`] configuration installed, `send` first asks the seeded
//! [`FaultPlan`](crate::FaultPlan) for the message's fate: the latency its
//! modelled retransmissions and link jitter add to the arrival time, plus
//! [`RELIA_HEADER_BYTES`](crate::RELIA_HEADER_BYTES) on the wire — or, when
//! every attempt is dropped, a [`DeliveryExpired`](crate::DeliveryExpired)
//! panic instead of a lost message. Either way exactly one envelope is
//! enqueued, through the same code as a fault-free send, so no fault schedule
//! can make a receiver wait for a message that never comes and the receive
//! side has nothing to undo.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use dsm_core::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use sp2model::{CostModel, SharedStats, VirtualTime};

use crate::envelope::RELIA_HEADER_BYTES;
use crate::fault::{MsgKey, NetFaults};
use crate::{Envelope, NetError, NodeId};

/// The two logical delivery ports of a node.
///
/// TreadMarks services remote requests (lock, page, diff) with an interrupt
/// handler while the main computation may itself be blocked waiting for a
/// reply. Keeping the two message classes on separate ports lets whoever
/// serves a node's requests drain them without stealing the replies its
/// compute thread is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Unsolicited requests, served by the node's protocol handlers.
    Request,
    /// Replies and collective-operation data, consumed by the compute thread.
    Reply,
}

/// The sending halves of one node's two ports. A cluster builds one table
/// of these and every endpoint shares it.
struct Mailbox<M> {
    request_tx: Sender<Envelope<M>>,
    reply_tx: Sender<Envelope<M>>,
}

/// A fully connected simulated cluster of `n` nodes.
///
/// `Cluster` is a factory: build it once, then
/// [`into_endpoints`](Self::into_endpoints) and hand one [`Endpoint`] to
/// each node thread.
pub struct Cluster<M> {
    endpoints: Vec<Endpoint<M>>,
}

impl<M: Send> Cluster<M> {
    /// Creates a cluster of `nodes` endpoints sharing `cost_model`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, cost_model: CostModel) -> Cluster<M> {
        Cluster::new_with_faults(nodes, cost_model, None)
    }

    /// Creates a cluster with an optional fault-injection configuration.
    /// `None` is exactly [`Cluster::new`]; `Some` makes every endpoint's
    /// inter-node sends pay the seeded fault plan's latency and header bytes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new_with_faults(
        nodes: usize,
        cost_model: CostModel,
        faults: Option<NetFaults>,
    ) -> Cluster<M> {
        assert!(nodes > 0, "a cluster needs at least one node");
        let cost_model = Arc::new(cost_model);
        let faults = faults.map(Arc::new);
        let mut mailboxes = Vec::with_capacity(nodes);
        let mut receivers = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let (request_tx, request_rx) = unbounded();
            let (reply_tx, reply_rx) = unbounded();
            mailboxes.push(Mailbox { request_tx, reply_tx });
            receivers.push((request_rx, reply_rx));
        }
        let mailboxes: Arc<[Mailbox<M>]> = mailboxes.into();
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(id, (request_rx, reply_rx))| Endpoint {
                id: NodeId(id),
                nodes,
                mailboxes: Arc::clone(&mailboxes),
                request_rx,
                reply_rx,
                cost_model: Arc::clone(&cost_model),
                stats: SharedStats::new(),
                faults: faults.clone(),
            })
            .collect();
        Cluster { endpoints }
    }

    /// Consumes the cluster, yielding one endpoint per node (index = node
    /// id), so destructure by indexing rather than by popping in reverse:
    ///
    /// ```
    /// use msgnet::{Cluster, NodeId};
    /// use sp2model::CostModel;
    ///
    /// let endpoints = Cluster::<u32>::new(3, CostModel::sp2()).into_endpoints();
    /// assert_eq!(endpoints.len(), 3);
    /// for (i, endpoint) in endpoints.iter().enumerate() {
    ///     assert_eq!(endpoint.id(), NodeId(i));
    /// }
    /// ```
    pub fn into_endpoints(self) -> Vec<Endpoint<M>> {
        self.endpoints
    }
}

impl<M> fmt::Debug for Cluster<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster").field("nodes", &self.endpoints.len()).finish()
    }
}

/// One node's connection to the cluster.
///
/// The endpoint owns the node's receive queues and statistics counters, and
/// shares the table of every node's send queues and the [`CostModel`] with
/// the other endpoints of its cluster. It is `Send` so it can move into the
/// node's thread, but it is deliberately not `Clone`: the compute thread of
/// a node and whichever thread serves its requests share one endpoint
/// through the runtime's own synchronization.
pub struct Endpoint<M> {
    id: NodeId,
    nodes: usize,
    mailboxes: Arc<[Mailbox<M>]>,
    request_rx: Receiver<Envelope<M>>,
    reply_rx: Receiver<Envelope<M>>,
    cost_model: Arc<CostModel>,
    stats: SharedStats,
    faults: Option<Arc<NetFaults>>,
}

impl<M: Send> Endpoint<M> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// This node's statistics counters.
    pub fn stats(&self) -> &SharedStats {
        &self.stats
    }

    fn rx_chan(&self, port: Port) -> &Receiver<Envelope<M>> {
        match port {
            Port::Request => &self.request_rx,
            Port::Reply => &self.reply_rx,
        }
    }

    fn mailbox_tx(&self, dst: NodeId, port: Port) -> &Sender<Envelope<M>> {
        let mailbox = &self.mailboxes[dst.index()];
        match port {
            Port::Request => &mailbox.request_tx,
            Port::Reply => &mailbox.reply_tx,
        }
    }

    /// Number of messages currently queued on this node's `port`. A message
    /// enqueued before the call counts until a receive takes it, which is
    /// what lets the runtime re-check a request port after it stops draining
    /// it.
    pub fn backlog(&self, port: Port) -> usize {
        self.rx_chan(port).len()
    }

    /// Sends `payload` of modelled size `payload_bytes` to `dst`, issued at
    /// local virtual time `sent_at`. Returns the virtual time at which the
    /// message arrives.
    ///
    /// `interrupt` selects the interrupt-driven (DSM) or polled
    /// (message-passing baseline) cost path.
    ///
    /// With fault injection enabled the message carries
    /// [`RELIA_HEADER_BYTES`](crate::RELIA_HEADER_BYTES) more on the wire,
    /// and its arrival time includes any retransmission timeouts and link
    /// delay the fault plan assigns.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a node of this cluster; sending to oneself is
    /// allowed, costs nothing extra, and bypasses fault injection. Panics
    /// with a [`DeliveryExpired`](crate::DeliveryExpired) payload if the
    /// fault plan drops all
    /// [`RetryPolicy::max_attempts`](crate::RetryPolicy::max_attempts)
    /// transmission attempts.
    pub fn send(
        &self,
        dst: NodeId,
        port: Port,
        payload: M,
        payload_bytes: usize,
        sent_at: VirtualTime,
        interrupt: bool,
    ) -> VirtualTime {
        assert!(dst.index() < self.nodes, "destination {dst} outside cluster of {}", self.nodes);
        let (wire_bytes, arrives_at) = if dst == self.id {
            (payload_bytes, sent_at)
        } else {
            let (wire_bytes, added) = match &self.faults {
                None => (payload_bytes, VirtualTime::ZERO),
                Some(faults) => {
                    let wire_bytes = payload_bytes + RELIA_HEADER_BYTES;
                    let key = MsgKey {
                        src: self.id,
                        dst,
                        port,
                        sent_at_ns: sent_at.as_nanos(),
                        wire_bytes: wire_bytes as u64,
                    };
                    (wire_bytes, faults.added_latency(key, &self.stats))
                }
            };
            self.stats.messages_sent(1);
            self.stats.bytes_sent(wire_bytes as u64);
            (wire_bytes, sent_at + self.cost_model.message_cost(wire_bytes, interrupt) + added)
        };
        let envelope =
            Envelope { src: self.id, dst, sent_at, arrives_at, payload_bytes: wire_bytes, payload };
        // Receiver endpoints live as long as the cluster run; a send after
        // teardown only happens in tests, where the message is simply never
        // consumed.
        self.mailbox_tx(dst, port).send(envelope);
        arrives_at
    }

    /// Sends a control message outside the modelled network: no fault
    /// injection, no statistics, zero modelled latency.
    ///
    /// The DSM harness uses this for its shutdown/poison messages, which
    /// must stay deliverable under any fault schedule — a droppable shutdown
    /// could wedge the very abort path that reports the fault.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a node of this cluster.
    pub fn send_control(&self, dst: NodeId, port: Port, payload: M) {
        assert!(dst.index() < self.nodes, "destination {dst} outside cluster of {}", self.nodes);
        let envelope = Envelope {
            src: self.id,
            dst,
            sent_at: VirtualTime::ZERO,
            arrives_at: VirtualTime::ZERO,
            payload_bytes: 0,
            payload,
        };
        self.mailbox_tx(dst, port).send(envelope);
    }

    /// Blocks until a message arrives on `port`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if every peer endpoint has been
    /// dropped.
    pub fn recv(&self, port: Port) -> Result<Envelope<M>, NetError> {
        self.rx_chan(port).recv().map_err(|_| NetError::Disconnected)
    }

    /// Blocks until a message arrives on `port` or `timeout` (real time)
    /// elapses — the liveness backstop behind the DSM watchdog.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] if the deadline passes without a
    /// message, [`NetError::Disconnected`] if every peer endpoint has been
    /// dropped.
    pub fn recv_timeout(&self, port: Port, timeout: Duration) -> Result<Envelope<M>, NetError> {
        self.rx_chan(port).recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => NetError::Timeout,
            RecvTimeoutError::Disconnected => NetError::Disconnected,
        })
    }

    /// Returns a pending message on `port` if one is queued.
    pub fn try_recv(&self, port: Port) -> Option<Envelope<M>> {
        self.rx_chan(port).try_recv().ok()
    }
}

impl<M> fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).field("nodes", &self.nodes).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes() -> (Endpoint<u32>, Endpoint<u32>) {
        let mut v = Cluster::new(2, CostModel::sp2()).into_endpoints();
        let b = v.remove(1);
        let a = v.remove(0);
        (a, b)
    }

    #[test]
    fn send_and_receive_preserves_payload_and_times() {
        let (a, b) = two_nodes();
        let sent_at = VirtualTime::from_micros(100);
        let arrival = a.send(b.id(), Port::Reply, 7, 64, sent_at, true);
        assert!(arrival > sent_at);
        let env = b.recv(Port::Reply).unwrap();
        assert_eq!(env.payload, 7);
        assert_eq!(env.src, a.id());
        assert_eq!(env.arrives_at, arrival);
    }

    #[test]
    fn ports_are_independent() {
        let (a, b) = two_nodes();
        a.send(b.id(), Port::Request, 1, 0, VirtualTime::ZERO, true);
        a.send(b.id(), Port::Reply, 2, 0, VirtualTime::ZERO, true);
        assert_eq!(b.try_recv(Port::Reply).unwrap().payload, 2);
        assert_eq!(b.try_recv(Port::Request).unwrap().payload, 1);
        assert!(b.try_recv(Port::Request).is_none());
    }

    #[test]
    fn statistics_count_messages_and_bytes() {
        let (a, b) = two_nodes();
        a.send(b.id(), Port::Reply, 1, 100, VirtualTime::ZERO, true);
        a.send(b.id(), Port::Reply, 2, 28, VirtualTime::ZERO, true);
        let snap = a.stats().snapshot();
        assert_eq!(snap.messages_sent, 2);
        assert_eq!(snap.bytes_sent, 128);
        assert_eq!(b.stats().snapshot().messages_sent, 0);
    }

    #[test]
    fn self_sends_are_free_and_uncounted() {
        let (a, _b) = two_nodes();
        let t = VirtualTime::from_micros(5);
        let arrival = a.send(a.id(), Port::Reply, 9, 1000, t, true);
        assert_eq!(arrival, t);
        assert_eq!(a.stats().snapshot().messages_sent, 0);
        assert_eq!(a.recv(Port::Reply).unwrap().payload, 9);
    }

    #[test]
    fn polled_sends_arrive_sooner_than_interrupt_sends() {
        let (a, b) = two_nodes();
        let t0 = VirtualTime::ZERO;
        let fast = a.send(b.id(), Port::Reply, 1, 0, t0, false);
        let slow = a.send(b.id(), Port::Reply, 2, 0, t0, true);
        assert!(fast < slow);
    }

    #[test]
    #[should_panic]
    fn sending_outside_the_cluster_panics() {
        let (a, _b) = two_nodes();
        a.send(NodeId(5), Port::Reply, 0, 0, VirtualTime::ZERO, true);
    }

    #[test]
    fn works_across_threads() {
        let mut v = Cluster::<u64>::new(2, CostModel::free()).into_endpoints();
        let b = v.remove(1);
        let a = v.remove(0);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100u64 {
                    a.send(NodeId(1), Port::Reply, i, 8, VirtualTime::ZERO, true);
                }
            });
            let mut sum = 0;
            for _ in 0..100 {
                sum += b.recv(Port::Reply).unwrap().payload;
            }
            assert_eq!(sum, 4950);
        });
    }

    #[test]
    fn backlog_is_the_queue_length_under_faults() {
        // The runtime re-checks a request port's backlog after it stops
        // draining it. Under faults every message is still one envelope, so
        // the backlog is the queue: duplicates add nothing and reorders hold
        // nothing back, at every point of a drain.
        let rates = LinkRates {
            drop_permille: 0,
            dup_permille: 1000,
            delay_permille: 0,
            reorder_permille: 1000,
        };
        let faults =
            NetFaults { plan: FaultPlan::uniform(6, rates), retry: RetryPolicy::default() };
        let (a, b) = faulty_pair(faults);
        for i in 0..10u32 {
            a.send(b.id(), Port::Request, i, 8, VirtualTime::from_micros(u64::from(i)), true);
        }
        a.send(b.id(), Port::Reply, 99, 8, VirtualTime::ZERO, true);
        assert_eq!(b.backlog(Port::Request), 10);
        assert_eq!(b.backlog(Port::Reply), 1, "the other port counts apart");
        for i in 0..10 {
            assert_eq!(b.backlog(Port::Request), 10 - i as usize);
            assert_eq!(b.try_recv(Port::Request).unwrap().payload, i, "FIFO under polling");
        }
        assert!(b.try_recv(Port::Request).is_none());
        assert_eq!(b.backlog(Port::Request), 0);
        // Control messages count like any message.
        b.send_control(b.id(), Port::Request, 3);
        assert_eq!(b.backlog(Port::Request), 1);
    }

    #[test]
    fn recv_timeout_returns_messages_and_times_out() {
        let (a, b) = two_nodes();
        a.send(b.id(), Port::Reply, 5, 8, VirtualTime::ZERO, true);
        let env = b.recv_timeout(Port::Reply, Duration::from_secs(10)).unwrap();
        assert_eq!(env.payload, 5);
        assert_eq!(b.recv_timeout(Port::Reply, Duration::from_millis(10)), Err(NetError::Timeout));
    }

    // ---- fault-injection tests -------------------------------------------

    use crate::fault::{DeliveryExpired, FaultPlan, LinkRates, NetFaults, RetryPolicy};

    fn faulty_pair(faults: NetFaults) -> (Endpoint<u32>, Endpoint<u32>) {
        let mut v = Cluster::new_with_faults(2, CostModel::sp2(), Some(faults)).into_endpoints();
        let b = v.remove(1);
        let a = v.remove(0);
        (a, b)
    }

    fn flood(
        rates: LinkRates,
        seed: u64,
        n: u32,
    ) -> (Vec<u32>, VirtualTime, sp2model::StatsSnapshot) {
        let faults =
            NetFaults { plan: FaultPlan::uniform(seed, rates), retry: RetryPolicy::default() };
        let (a, b) = faulty_pair(faults);
        let mut t = VirtualTime::ZERO;
        let mut last = VirtualTime::ZERO;
        for i in 0..n {
            last = last.max(a.send(b.id(), Port::Reply, i, 64, t, true));
            t += VirtualTime::from_micros(10);
        }
        let mut got = Vec::new();
        for _ in 0..n {
            got.push(b.recv(Port::Reply).unwrap().payload);
        }
        assert!(b.try_recv(Port::Reply).is_none(), "no residual deliverable messages");
        (got, last, a.stats().snapshot())
    }

    #[test]
    fn chaos_traffic_is_delivered_exactly_once_in_order() {
        let rates = LinkRates {
            drop_permille: 100,
            dup_permille: 100,
            delay_permille: 150,
            reorder_permille: 150,
        };
        let (got, _, snap) = flood(rates, 42, 500);
        assert_eq!(got, (0..500).collect::<Vec<u32>>(), "delivery must stay FIFO per lane");
        assert!(snap.net_retransmits > 0, "expected some drops at 10%/attempt over 500 msgs");
        assert!(snap.net_dups > 0, "expected some duplicates");
        assert!(snap.net_reorders > 0, "expected some reorders");
        assert!(snap.net_added_delay_ns > 0, "drops and delays must add modelled latency");
    }

    #[test]
    fn fault_schedule_is_reproducible_per_seed() {
        let rates = LinkRates {
            drop_permille: 80,
            dup_permille: 80,
            delay_permille: 120,
            reorder_permille: 120,
        };
        let (got1, last1, snap1) = flood(rates, 7, 300);
        let (got2, last2, snap2) = flood(rates, 7, 300);
        assert_eq!(got1, got2);
        assert_eq!(last1, last2, "same seed must give identical arrival times");
        assert_eq!(snap1, snap2, "same seed must give identical fault counters");
        let (_, last3, snap3) = flood(rates, 8, 300);
        assert!(last3 != last1 || snap3 != snap1, "a different seed should perturb the schedule");
    }

    #[test]
    fn duplicates_are_counted_and_delivered_once() {
        let rates = LinkRates {
            drop_permille: 0,
            dup_permille: 1000,
            delay_permille: 0,
            reorder_permille: 0,
        };
        let (got, _, snap) = flood(rates, 3, 50);
        assert_eq!(got, (0..50).collect::<Vec<u32>>());
        assert_eq!(snap.net_dups, 50, "every message must be duplicated at 100%");
    }

    #[test]
    fn reorders_are_counted_and_delivery_is_in_send_order() {
        let rates = LinkRates {
            drop_permille: 0,
            dup_permille: 0,
            delay_permille: 0,
            reorder_permille: 1000,
        };
        let (got, _, snap) = flood(rates, 9, 100);
        assert_eq!(got, (0..100).collect::<Vec<u32>>());
        assert_eq!(snap.net_reorders, 100);
    }

    #[test]
    fn drops_add_latency_but_lose_nothing() {
        let rates = LinkRates {
            drop_permille: 300,
            dup_permille: 0,
            delay_permille: 0,
            reorder_permille: 0,
        };
        let faults =
            NetFaults { plan: FaultPlan::uniform(21, rates), retry: RetryPolicy::default() };
        let (a, b) = faulty_pair(faults);
        let clean = CostModel::sp2().message_cost(64 + RELIA_HEADER_BYTES, true);
        let mut delayed = 0u64;
        for i in 0..200u32 {
            let sent_at = VirtualTime::from_micros(u64::from(i) * 7);
            let arrival = a.send(b.id(), Port::Reply, i, 64, sent_at, true);
            assert!(arrival >= sent_at + clean);
            if arrival > sent_at + clean {
                delayed += 1;
            }
        }
        for i in 0..200 {
            assert_eq!(b.recv(Port::Reply).unwrap().payload, i);
        }
        assert!(delayed > 0, "30% drop rate must delay some of 200 messages");
        assert!(
            a.stats().snapshot().net_retransmits >= delayed,
            "every delayed message implies at least one retransmission"
        );
    }

    #[test]
    fn a_dead_link_expires_with_a_structured_payload() {
        let plan = FaultPlan::uniform(1, LinkRates { drop_permille: 1000, ..LinkRates::default() });
        let retry = RetryPolicy { max_attempts: 3, ..RetryPolicy::default() };
        let (a, b) = faulty_pair(NetFaults { plan, retry });
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.send(b.id(), Port::Reply, 1, 8, VirtualTime::ZERO, true);
        }))
        .expect_err("a dead link must expire the send");
        let expired =
            caught.downcast_ref::<DeliveryExpired>().expect("payload must be DeliveryExpired");
        assert_eq!(expired.src, NodeId(0));
        assert_eq!(expired.dst, NodeId(1));
        assert_eq!(expired.attempts, 3);
    }

    #[test]
    fn control_messages_bypass_a_dead_link() {
        let plan = FaultPlan::uniform(1, LinkRates { drop_permille: 1000, ..LinkRates::default() });
        let (a, b) = faulty_pair(NetFaults { plan, retry: RetryPolicy::default() });
        a.send_control(b.id(), Port::Reply, 99);
        assert_eq!(b.recv(Port::Reply).unwrap().payload, 99);
        assert_eq!(a.stats().snapshot().messages_sent, 0, "control traffic is uncounted");
    }

    #[test]
    fn faults_charge_header_bytes_on_the_wire() {
        let faults = NetFaults {
            plan: FaultPlan::uniform(4, LinkRates::default()),
            retry: RetryPolicy::default(),
        };
        let (a, b) = faulty_pair(faults);
        a.send(b.id(), Port::Reply, 1, 100, VirtualTime::ZERO, true);
        assert_eq!(a.stats().snapshot().bytes_sent, (100 + RELIA_HEADER_BYTES) as u64);
    }

    #[test]
    fn faults_off_keeps_the_wire_format_bare() {
        let (a, b) = two_nodes();
        a.send(b.id(), Port::Reply, 1, 64, VirtualTime::ZERO, true);
        let env = b.recv(Port::Reply).unwrap();
        assert_eq!(env.payload_bytes, 64, "no header bytes may be charged when faults are off");
    }

    #[test]
    fn new_with_faults_none_matches_new_exactly() {
        let (a, b) = two_nodes();
        let mut v = Cluster::<u32>::new_with_faults(2, CostModel::sp2(), None).into_endpoints();
        let b2 = v.remove(1);
        let a2 = v.remove(0);
        let t = VirtualTime::from_micros(3);
        let arr1 = a.send(b.id(), Port::Reply, 7, 256, t, true);
        let arr2 = a2.send(b2.id(), Port::Reply, 7, 256, t, true);
        assert_eq!(arr1, arr2);
        assert_eq!(b.recv(Port::Reply).unwrap(), b2.recv(Port::Reply).unwrap());
        assert_eq!(a.stats().snapshot(), a2.stats().snapshot());
    }
}
