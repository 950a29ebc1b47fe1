//! # msgnet — the simulated cluster interconnect
//!
//! The paper's experiments run on an 8-node IBM SP/2 whose nodes communicate
//! through IBM's user-level Message Passing Library (MPL). This crate is the
//! stand-in: a set of [`Endpoint`]s connected by in-process channels, with
//! every transfer charged to the [`sp2model`] cost model and counted in the
//! shared statistics.
//!
//! The [`Cluster`] / [`Endpoint`] layer is what the DSM runtime talks to:
//! typed payloads, a *request* port drained by whichever thread sends to it
//! (the runtime's stand-in for the paper's interrupt handler), and a
//! *reply* port consumed by the blocked compute thread.
//!
//! Fault injection is optional: a seeded deterministic fault plan
//! ([`FaultPlan`], configured through [`NetFaults`]) whose drops, duplicates,
//! delays and reorders an ARQ masks. Every fault is resolved at send time
//! into added arrival latency and header bytes, so the receive side is the
//! same plain channel either way. With faults off — the default — no term is
//! added and the wire format and model times are untouched.
//!
//! ```
//! use msgnet::{Cluster, NodeId, Port};
//! use sp2model::{CostModel, VirtualTime};
//!
//! let mut endpoints = Cluster::new(2, CostModel::sp2()).into_endpoints();
//! // `into_endpoints` yields endpoints in node-id order: index directly.
//! let b = endpoints.remove(1);
//! let a = endpoints.remove(0);
//! assert_eq!((a.id(), b.id()), (NodeId(0), NodeId(1)));
//! let arrival = a.send(b.id(), Port::Reply, "hello", 5, VirtualTime::ZERO, true);
//! let env = b.recv(Port::Reply).unwrap();
//! assert_eq!(env.payload, "hello");
//! assert_eq!(env.arrives_at, arrival);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod envelope;
mod error;
mod fault;
mod node;

pub use cluster::{Cluster, Endpoint, Port};
pub use envelope::{Envelope, RELIA_HEADER_BYTES};
pub use error::NetError;
pub use fault::{DeliveryExpired, FaultPlan, LinkRates, NetFaults, RetryPolicy};
pub use node::NodeId;
