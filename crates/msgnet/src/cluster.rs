//! Clusters of endpoints connected by in-process channels.
//!
//! With fault injection off (the default) an endpoint is a thin wrapper over
//! the per-port channels: `send` stamps an [`Envelope`] with its modelled
//! arrival time and enqueues it, `recv` pops. With a
//! [`NetFaults`](crate::NetFaults) configuration installed, a reliable-
//! delivery sublayer slots in between:
//!
//! * **Send side** — every inter-node message gets a per-(link, port)
//!   sequence number ([`ReliaHeader`](crate::ReliaHeader), charged at
//!   [`RELIA_HEADER_BYTES`](crate::RELIA_HEADER_BYTES) on the wire). The
//!   seeded [`FaultPlan`](crate::FaultPlan) decides the message's fate;
//!   dropped attempts are masked by modelled retransmissions whose timeouts
//!   (virtual time, [`RetryPolicy`](crate::RetryPolicy)) are added to the
//!   arrival time, duplicates are enqueued twice, and exhausting
//!   `max_attempts` aborts the send with a
//!   [`DeliveryExpired`](crate::DeliveryExpired) panic payload instead of
//!   losing the message. Because the plan is a pure function of the message
//!   identity, the sender can resolve the whole retransmission exchange at
//!   send time — so *exactly one* logical copy (plus injected duplicates) is
//!   always enqueued, and no fault schedule can make a receiver wait for a
//!   message that never comes.
//! * **Receive side** — three stages per port: a reorder stage that defers
//!   plan-marked laggards until the channel drains (modelling delivery
//!   behind later traffic), a dedup window that discards already-seen
//!   sequence numbers, and a per-link resequencing buffer that restores
//!   send order. The application above the layer sees exactly the fault-free
//!   delivery semantics.
//!
//! Faults-off runs carry `relia: None` envelopes and never touch any of the
//! above — bit-identical wire accounting and model time to a build without
//! the layer.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsm_core::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use dsm_core::sync::Mutex;
use sp2model::{CostModel, SharedStats, VirtualTime};

use crate::envelope::RELIA_HEADER_BYTES;
use crate::fault::{DeliveryExpired, MsgKey, NetFaults};
use crate::{Envelope, NetError, NodeId, ReliaHeader};

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

struct Mailbox<M> {
    request_tx: Sender<Envelope<M>>,
    reply_tx: Sender<Envelope<M>>,
}

impl<M> Clone for Mailbox<M> {
    fn clone(&self) -> Self {
        Mailbox { request_tx: self.request_tx.clone(), reply_tx: self.reply_tx.clone() }
    }
}

/// Per-link receive lane: the dedup window and resequencing buffer.
struct RxLane<M> {
    /// Sequence number the next in-order delivery must carry. Everything
    /// below is a duplicate (the window); everything above waits its turn.
    next_expected: u64,
    /// Out-of-order arrivals parked until the gap below them fills.
    buffer: BTreeMap<u64, Envelope<M>>,
}

impl<M> Default for RxLane<M> {
    fn default() -> Self {
        RxLane { next_expected: 0, buffer: BTreeMap::new() }
    }
}

/// Receiver-side state of one port.
struct RxPort<M> {
    /// In-order messages ready for the application.
    ready: VecDeque<Envelope<M>>,
    /// Plan-marked laggards, held back until the channel drains.
    deferred: VecDeque<Envelope<M>>,
    /// Per-source lanes.
    lanes: HashMap<NodeId, RxLane<M>>,
}

impl<M> Default for RxPort<M> {
    fn default() -> Self {
        RxPort { ready: VecDeque::new(), deferred: VecDeque::new(), lanes: HashMap::new() }
    }
}

/// Everything the reliable-delivery layer keeps per endpoint. Absent
/// (`None` on the endpoint) when fault injection is off.
struct ReliaState<M> {
    config: Arc<NetFaults>,
    /// Next sequence number per (destination, port) lane.
    next_seq: Mutex<HashMap<(NodeId, Port), u64>>,
    rx_request: Mutex<RxPort<M>>,
    rx_reply: Mutex<RxPort<M>>,
    /// Clones an envelope for duplicate injection. A plain `fn` pointer
    /// instantiated where `M: Clone` is known, so `send` itself needs no
    /// `Clone` bound.
    clone_env: fn(&Envelope<M>) -> Envelope<M>,
}

impl<M> ReliaState<M> {
    fn rx_state(&self, port: Port) -> &Mutex<RxPort<M>> {
        match port {
            Port::Request => &self.rx_request,
            Port::Reply => &self.rx_reply,
        }
    }
}

fn clone_envelope<M: Clone>(env: &Envelope<M>) -> Envelope<M> {
    env.clone()
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
        Cluster::build(nodes, cost_model, None)
    }

    fn build(nodes: usize, cost_model: CostModel, faults: Option<ReliaFactory<M>>) -> Cluster<M> {
        assert!(nodes > 0, "a cluster needs at least one node");
        let cost_model = Arc::new(cost_model);
        let mut mailboxes = Vec::with_capacity(nodes);
        let mut receivers = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let (request_tx, request_rx) = unbounded();
            let (reply_tx, reply_rx) = unbounded();
            mailboxes.push(Mailbox { request_tx, reply_tx });
            receivers.push((request_rx, reply_rx));
        }
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(id, (request_rx, reply_rx))| Endpoint {
                id: NodeId(id),
                nodes,
                mailboxes: mailboxes.clone(),
                request_rx,
                reply_rx,
                cost_model: Arc::clone(&cost_model),
                stats: SharedStats::new(),
                relia: faults.as_ref().map(|f| f.fresh()),
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

impl<M: Send + Clone> Cluster<M> {
    /// Creates a cluster with an optional fault-injection configuration.
    /// `None` is exactly [`Cluster::new`]; `Some` enables the seeded fault
    /// plan and the reliable-delivery sublayer on every endpoint.
    ///
    /// Requires `M: Clone` so the plan can inject duplicate copies.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new_with_faults(
        nodes: usize,
        cost_model: CostModel,
        faults: Option<NetFaults>,
    ) -> Cluster<M> {
        let factory =
            faults.map(|f| ReliaFactory { config: Arc::new(f), clone_env: clone_envelope::<M> });
        Cluster::build(nodes, cost_model, factory)
    }
}

/// Builds one fresh [`ReliaState`] per endpoint around a shared config.
struct ReliaFactory<M> {
    config: Arc<NetFaults>,
    clone_env: fn(&Envelope<M>) -> Envelope<M>,
}

impl<M> ReliaFactory<M> {
    fn fresh(&self) -> ReliaState<M> {
        ReliaState {
            config: Arc::clone(&self.config),
            next_seq: Mutex::new(HashMap::new()),
            rx_request: Mutex::new(RxPort::default()),
            rx_reply: Mutex::new(RxPort::default()),
            clone_env: self.clone_env,
        }
    }
}

impl<M> fmt::Debug for Cluster<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster").field("nodes", &self.endpoints.len()).finish()
    }
}

/// One node's connection to the cluster.
///
/// The endpoint owns the node's receive queues and clones of every other
/// node's send queues, the shared [`CostModel`] and the node's statistics
/// counters. It is `Send` so it can move into the node's thread, but it is
/// deliberately not `Clone`: the compute thread of a node and whichever
/// thread serves its requests share one endpoint through the runtime's own
/// synchronization.
pub struct Endpoint<M> {
    id: NodeId,
    nodes: usize,
    mailboxes: Vec<Mailbox<M>>,
    request_rx: Receiver<Envelope<M>>,
    reply_rx: Receiver<Envelope<M>>,
    cost_model: Arc<CostModel>,
    stats: SharedStats,
    relia: Option<ReliaState<M>>,
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

    /// The cluster-wide cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// This node's statistics counters.
    pub fn stats(&self) -> &SharedStats {
        &self.stats
    }

    /// The fault configuration this cluster was built with, if any.
    pub fn faults(&self) -> Option<&NetFaults> {
        self.relia.as_ref().map(|r| &*r.config)
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

    /// Number of messages currently pending on this node's `port`: the raw
    /// channel backlog plus, under fault injection, whatever the
    /// reliable-delivery stages hold (in-order-ready and deferred
    /// laggards). A message enqueued before the call counts until a receive
    /// takes it (an injected duplicate counts until a receive discards it),
    /// which is what lets the runtime re-check a request port after it
    /// stops draining it.
    pub fn backlog(&self, port: Port) -> usize {
        let mut depth = self.rx_chan(port).len();
        if let Some(relia) = &self.relia {
            let st = relia.rx_state(port).lock();
            depth += st.ready.len() + st.deferred.len();
        }
        depth
    }

    /// Sends `payload` of modelled size `payload_bytes` to `dst`, issued at
    /// local virtual time `sent_at`. Returns the virtual time at which the
    /// message arrives.
    ///
    /// `interrupt` selects the interrupt-driven (DSM) or polled
    /// (message-passing baseline) cost path.
    ///
    /// With fault injection enabled the message travels through the
    /// reliable-delivery layer: it is sequence-numbered, and its arrival
    /// time includes any retransmission timeouts and link delay the fault
    /// plan assigns.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a node of this cluster; sending to oneself is
    /// allowed, costs nothing extra, and bypasses fault injection. Panics
    /// with a [`DeliveryExpired`] payload if the fault plan drops all
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
        if let Some(relia) = &self.relia {
            if dst != self.id {
                return self.send_reliable(
                    relia,
                    dst,
                    port,
                    payload,
                    payload_bytes,
                    sent_at,
                    interrupt,
                );
            }
        }
        let latency = if dst == self.id {
            VirtualTime::ZERO
        } else {
            self.cost_model.message_cost(payload_bytes, interrupt)
        };
        let arrives_at = sent_at + latency;
        let envelope = Envelope {
            src: self.id,
            dst,
            sent_at,
            arrives_at,
            payload_bytes,
            relia: None,
            payload,
        };
        if dst != self.id {
            self.stats.messages_sent(1);
            self.stats.bytes_sent(payload_bytes as u64);
        }
        // Receiver endpoints live as long as the cluster run; a send after
        // teardown only happens in tests, where the message is simply never
        // consumed.
        self.mailbox_tx(dst, port).send(envelope);
        arrives_at
    }

    /// The faulty send path: resolves the message's whole fate — drops and
    /// their retransmission timeouts, duplicates, delay, reorder marking —
    /// at send time from the pure fault plan, then enqueues the surviving
    /// copy (and any duplicate) with a sequence-numbered header.
    #[allow(clippy::too_many_arguments)]
    fn send_reliable(
        &self,
        relia: &ReliaState<M>,
        dst: NodeId,
        port: Port,
        payload: M,
        payload_bytes: usize,
        sent_at: VirtualTime,
        interrupt: bool,
    ) -> VirtualTime {
        let faults = &relia.config;
        let wire_bytes = payload_bytes + RELIA_HEADER_BYTES;
        let key = MsgKey {
            src: self.id,
            dst,
            port,
            sent_at_ns: sent_at.as_nanos(),
            wire_bytes: wire_bytes as u64,
        };
        let max_attempts = faults.retry.max_attempts;
        let drops = faults.plan.leading_drops(key, max_attempts);
        if drops >= max_attempts {
            // Every attempt was lost: the peer is unreachable on this link.
            // Count the retransmissions actually made, then abort the send;
            // the DSM harness converts this payload into a structured
            // `PeerUnresponsive` error.
            self.stats.net_retransmits(u64::from(max_attempts.saturating_sub(1)));
            std::panic::panic_any(DeliveryExpired {
                src: self.id,
                dst,
                port,
                attempts: max_attempts,
            });
        }
        // Each dropped attempt costs one (backed-off) virtual timeout before
        // the retransmission departs.
        let mut retry_delay = VirtualTime::ZERO;
        let mut timeout = faults.retry.timeout;
        for _ in 0..drops {
            retry_delay += timeout;
            timeout = timeout.scale(u64::from(faults.retry.backoff));
        }
        let jitter = faults.plan.extra_delay(key);
        let laggard = faults.plan.lags(key);
        let duplicate = faults.plan.duplicates(key);
        let arrives_at =
            sent_at + self.cost_model.message_cost(wire_bytes, interrupt) + retry_delay + jitter;
        self.stats.messages_sent(1);
        self.stats.bytes_sent(wire_bytes as u64);
        if drops > 0 {
            self.stats.net_retransmits(u64::from(drops));
        }
        if jitter > VirtualTime::ZERO {
            self.stats.net_delays(1);
        }
        if laggard {
            self.stats.net_reorders(1);
        }
        let added = retry_delay + jitter;
        if added > VirtualTime::ZERO {
            self.stats.net_added_delay_ns(added.as_nanos());
        }
        // Assign the sequence number and enqueue under one lock so the
        // channel order of a lane tracks its sequence order (the resequencer
        // absorbs any inversion regardless).
        let mut next_seq = relia.next_seq.lock();
        let seq_slot = next_seq.entry((dst, port)).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        let envelope = Envelope {
            src: self.id,
            dst,
            sent_at,
            arrives_at,
            payload_bytes: wire_bytes,
            relia: Some(ReliaHeader { seq, laggard }),
            payload,
        };
        let chan = self.mailbox_tx(dst, port);
        if duplicate {
            self.stats.net_dups(1);
            chan.send((relia.clone_env)(&envelope));
        }
        chan.send(envelope);
        arrives_at
    }

    /// Sends a control message outside the delivery layer: no fault
    /// injection, no sequence number, no statistics, zero modelled latency.
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
            relia: None,
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
        match &self.relia {
            None => self.rx_chan(port).recv().map_err(|_| NetError::Disconnected),
            Some(_) => self.recv_reliable(port, None),
        }
    }

    /// Blocks until a message arrives on `port` or `timeout` (real time)
    /// elapses — the liveness backstop behind the DSM watchdog.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] if the deadline passes without a
    /// deliverable message, [`NetError::Disconnected`] if every peer
    /// endpoint has been dropped.
    pub fn recv_timeout(&self, port: Port, timeout: Duration) -> Result<Envelope<M>, NetError> {
        match &self.relia {
            None => self.rx_chan(port).recv_timeout(timeout).map_err(|e| match e {
                RecvTimeoutError::Timeout => NetError::Timeout,
                RecvTimeoutError::Disconnected => NetError::Disconnected,
            }),
            Some(_) => self.recv_reliable(port, Some(timeout)),
        }
    }

    /// Returns a pending message on `port` if one is queued.
    pub fn try_recv(&self, port: Port) -> Option<Envelope<M>> {
        let Some(relia) = &self.relia else {
            return self.rx_chan(port).try_recv().ok();
        };
        let mut st = relia.rx_state(port).lock();
        loop {
            if let Some(env) = st.ready.pop_front() {
                return Some(env);
            }
            match self.rx_chan(port).try_recv() {
                Ok(env) => self.admit(&mut st, env),
                Err(_) => {
                    // Channel drained: laggards may now be delivered.
                    let env = st.deferred.pop_front()?;
                    self.admit(&mut st, env);
                }
            }
        }
    }

    /// The faulty receive path: reorder deferral, then dedup, then
    /// per-link resequencing. Blocks only when the channel is empty *and*
    /// no laggard is held back, so deferral can never deadlock a receiver.
    fn recv_reliable(
        &self,
        port: Port,
        timeout: Option<Duration>,
    ) -> Result<Envelope<M>, NetError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let relia = self.relia.as_ref().expect("reliable recv requires fault state");
        let chan = self.rx_chan(port);
        let state_mutex = relia.rx_state(port);
        let mut st = state_mutex.lock();
        loop {
            if let Some(env) = st.ready.pop_front() {
                return Ok(env);
            }
            match chan.try_recv() {
                Ok(env) => {
                    self.admit(&mut st, env);
                    continue;
                }
                Err(e) => {
                    // Channel drained: flush one deferred laggard, if any,
                    // before considering blocking.
                    if let Some(env) = st.deferred.pop_front() {
                        self.admit(&mut st, env);
                        continue;
                    }
                    if matches!(e, TryRecvError::Disconnected) {
                        return Err(NetError::Disconnected);
                    }
                }
            }
            // Nothing deliverable and nothing held back: block for the next
            // arrival. The port state lock is released first so concurrent
            // `try_recv` callers stay non-blocking.
            drop(st);
            let got = match deadline {
                None => chan.recv().map_err(|_| NetError::Disconnected),
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(NetError::Timeout);
                    }
                    chan.recv_timeout(remaining).map_err(|e| match e {
                        RecvTimeoutError::Timeout => NetError::Timeout,
                        RecvTimeoutError::Disconnected => NetError::Disconnected,
                    })
                }
            };
            st = state_mutex.lock();
            match got {
                Ok(env) => self.admit(&mut st, env),
                Err(err) => {
                    // Another consumer may have readied or deferred work
                    // while we were blocked; only fail once truly dry.
                    if st.ready.is_empty() && st.deferred.is_empty() {
                        return Err(err);
                    }
                }
            }
        }
    }

    /// Runs one envelope through the receive stages, promoting any newly
    /// in-order messages to `ready`.
    fn admit(&self, st: &mut RxPort<M>, mut env: Envelope<M>) {
        let Some(header) = env.relia else {
            // Self-sends and control messages bypass the delivery layer.
            st.ready.push_back(env);
            return;
        };
        if header.laggard {
            // Reorder stage: hold the message until the channel drains, so
            // it is observed *behind* traffic sent after it. The flag is
            // cleared so the second pass admits it.
            env.relia = Some(ReliaHeader { laggard: false, ..header });
            st.deferred.push_back(env);
            return;
        }
        let lane = st.lanes.entry(env.src).or_default();
        if header.seq < lane.next_expected || lane.buffer.contains_key(&header.seq) {
            // Dedup window: this sequence number was already delivered (or
            // is already parked); drop the copy.
            self.stats.net_dup_drops(1);
            return;
        }
        lane.buffer.insert(header.seq, env);
        // Resequencing: promote the in-order prefix.
        while let Some(ready) = lane.buffer.remove(&lane.next_expected) {
            lane.next_expected += 1;
            st.ready.push_back(ready);
        }
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
    fn backlog_spans_the_reliable_delivery_stages() {
        // The runtime re-checks a request port's backlog after it stops
        // draining it, so under fault injection the backlog must count what
        // the reliable-delivery stages hold — laggards parked in the reorder
        // stage, messages readied behind them — and not only the raw
        // channel, at every point of a drain.
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
        assert!(b.backlog(Port::Request) >= 10, "duplicates may add to the backlog");
        assert_eq!(b.backlog(Port::Reply), 2, "the other port counts apart, duplicate included");
        for i in 0..10 {
            assert!(b.backlog(Port::Request) > 0, "{i} requests still owed");
            assert_eq!(b.try_recv(Port::Request).unwrap().payload, i, "FIFO under polling");
        }
        assert!(b.try_recv(Port::Request).is_none());
        assert_eq!(b.backlog(Port::Request), 0);
        // Control messages bypass the stages and count like any message.
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

    // ---- fault-injection and reliable-delivery tests --------------------

    use crate::fault::{FaultPlan, LinkRates, NetFaults, RetryPolicy};

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
        assert!(snap.net_reorders > 0, "expected some laggards");
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
    fn duplicates_are_counted_and_dropped() {
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
    fn receiver_counts_dup_drops() {
        let rates = LinkRates {
            drop_permille: 0,
            dup_permille: 1000,
            delay_permille: 0,
            reorder_permille: 0,
        };
        let faults =
            NetFaults { plan: FaultPlan::uniform(5, rates), retry: RetryPolicy::default() };
        let (a, b) = faulty_pair(faults);
        for i in 0..20 {
            a.send(b.id(), Port::Reply, i, 8, VirtualTime::from_micros(u64::from(i)), true);
        }
        for _ in 0..20 {
            b.recv(Port::Reply).unwrap();
        }
        // Drain the duplicate copies still parked in the channel.
        assert!(b.try_recv(Port::Reply).is_none());
        assert_eq!(b.stats().snapshot().net_dup_drops, 20);
    }

    #[test]
    fn laggards_are_delivered_behind_later_traffic_then_resequenced() {
        // Mark exactly the first message as a laggard via a 100%-reorder
        // link, send it alone, then check that a later burst is admitted
        // around it while FIFO delivery order is still restored.
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
        let clean = a.cost_model().message_cost(64 + RELIA_HEADER_BYTES, true);
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
        let plan = FaultPlan::uniform(1, LinkRates::CLEAN).with_link(
            NodeId(0),
            NodeId(1),
            LinkRates::DEAD,
        );
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
        // The reverse link still works.
        b.send(a.id(), Port::Reply, 2, 8, VirtualTime::ZERO, true);
        assert_eq!(a.recv(Port::Reply).unwrap().payload, 2);
    }

    #[test]
    fn control_messages_bypass_a_dead_link() {
        let plan = FaultPlan::uniform(1, LinkRates::CLEAN).with_link(
            NodeId(0),
            NodeId(1),
            LinkRates::DEAD,
        );
        let (a, b) = faulty_pair(NetFaults { plan, retry: RetryPolicy::default() });
        a.send_control(b.id(), Port::Reply, 99);
        assert_eq!(b.recv(Port::Reply).unwrap().payload, 99);
        assert_eq!(a.stats().snapshot().messages_sent, 0, "control traffic is uncounted");
    }

    #[test]
    fn faults_charge_header_bytes_on_the_wire() {
        let faults = NetFaults {
            plan: FaultPlan::uniform(4, LinkRates::CLEAN),
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
        assert!(env.relia.is_none(), "no header may be attached when faults are off");
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
