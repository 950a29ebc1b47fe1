//! Delivery-order and request/reply-matching guarantees of the simulated
//! interconnect — the properties the DSM protocol is built on.

use msgnet::{Cluster, Endpoint, NodeId, Port};
use sp2model::{CostModel, VirtualTime};

fn pair<M: Send>() -> (Endpoint<M>, Endpoint<M>) {
    let mut v = Cluster::new(2, CostModel::free()).into_endpoints();
    let b = v.pop().unwrap();
    let a = v.pop().unwrap();
    (a, b)
}

#[test]
fn per_channel_delivery_is_fifo() {
    // Write notices and diffs from one node must not overtake each other:
    // messages from one sender on one port arrive in send order.
    let (a, b) = pair::<u64>();
    for i in 0..1000 {
        a.send(b.id(), Port::Reply, i, 8, VirtualTime::ZERO, true);
    }
    for i in 0..1000 {
        assert_eq!(b.recv(Port::Reply).unwrap().payload, i, "FIFO violated at {i}");
    }
}

#[test]
fn fifo_holds_across_concurrent_senders_per_channel() {
    // With several senders, interleaving is arbitrary but each sender's own
    // stream stays ordered.
    let endpoints = Cluster::<(usize, u64)>::new(3, CostModel::free()).into_endpoints();
    let mut it = endpoints.into_iter();
    let receiver = it.next().unwrap();
    std::thread::scope(|s| {
        for sender in it {
            s.spawn(move || {
                let me = sender.id().index();
                for i in 0..500 {
                    sender.send(NodeId(0), Port::Reply, (me, i), 16, VirtualTime::ZERO, true);
                }
            });
        }
        let mut last = [0u64; 3];
        for _ in 0..1000 {
            let (who, seq) = receiver.recv(Port::Reply).unwrap().payload;
            assert!(seq >= last[who], "sender {who} reordered: saw {seq} after {}", last[who]);
            last[who] = seq;
        }
    });
}

/// A miniature of the aggregated fetch introduced by the `ctrt` interface:
/// one request names many pages, one reply carries all of them, and the
/// requester matches replies to requests by id even when several fetches
/// are outstanding and replies arrive out of request order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Fetch {
    Request { req_id: u64, pages: Vec<u32> },
    Response { req_id: u64, diffs: Vec<(u32, u64)> },
}

#[test]
fn aggregated_requests_match_replies_by_id() {
    let (client, server) = pair::<Fetch>();
    // Two outstanding aggregated fetches.
    let first_pages: Vec<u32> = (0..16).collect();
    let second_pages: Vec<u32> = (100..104).collect();
    for (req_id, pages) in [(1u64, first_pages.clone()), (2, second_pages.clone())] {
        let bytes = 8 + pages.len() * 4;
        client.send(
            server.id(),
            Port::Request,
            Fetch::Request { req_id, pages },
            bytes,
            VirtualTime::ZERO,
            true,
        );
    }
    // The server answers in the opposite order, each response aggregating
    // every page of its request into one message.
    let mut requests = Vec::new();
    for _ in 0..2 {
        if let Fetch::Request { req_id, pages } = server.recv(Port::Request).unwrap().payload {
            requests.push((req_id, pages));
        }
    }
    requests.reverse();
    for (req_id, pages) in requests {
        let diffs: Vec<(u32, u64)> = pages.iter().map(|&p| (p, u64::from(p) * 10)).collect();
        let bytes = 8 + diffs.len() * 12;
        server.send(
            client.id(),
            Port::Reply,
            Fetch::Response { req_id, diffs },
            bytes,
            VirtualTime::ZERO,
            true,
        );
    }
    // The client demultiplexes by request id, not arrival order.
    let mut responses = std::collections::HashMap::new();
    for _ in 0..2 {
        if let Fetch::Response { req_id, diffs } = client.recv(Port::Reply).unwrap().payload {
            responses.insert(req_id, diffs);
        }
    }
    let first: Vec<(u32, u64)> = first_pages.iter().map(|&p| (p, u64::from(p) * 10)).collect();
    let second: Vec<(u32, u64)> = second_pages.iter().map(|&p| (p, u64::from(p) * 10)).collect();
    assert_eq!(responses[&1], first, "response 1 must carry exactly request 1's pages");
    assert_eq!(responses[&2], second, "response 2 must carry exactly request 2's pages");
    // Exactly one message per direction per fetch.
    assert_eq!(client.stats().snapshot().messages_sent, 2);
    assert_eq!(server.stats().snapshot().messages_sent, 2);
}

#[test]
fn ports_do_not_steal_each_others_messages() {
    // A requester drains Request while the compute thread blocks on Reply;
    // a reply must never surface on the request port.
    let (a, b) = pair::<&'static str>();
    a.send(b.id(), Port::Request, "request", 0, VirtualTime::ZERO, true);
    a.send(b.id(), Port::Reply, "reply", 0, VirtualTime::ZERO, true);
    assert_eq!(b.recv(Port::Reply).unwrap().payload, "reply");
    assert_eq!(b.recv(Port::Request).unwrap().payload, "request");
    assert!(b.try_recv(Port::Reply).is_none());
    assert!(b.try_recv(Port::Request).is_none());
}
