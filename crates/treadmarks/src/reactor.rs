//! The protocol reactor: one poll loop serving many nodes' request ports.
//!
//! The paper's runtime dedicates an interrupt handler per processor; the
//! seed reproduced that as one blocking OS thread per simulated node, which
//! stops scaling long before the 64–128-processor configurations this
//! reproduction now runs (2·nprocs+1 host threads for an nprocs-node run).
//! A *reactor* replaces a whole group of those threads: it owns a fixed set
//! of nodes ("lanes"), polls their request ports in ascending node-id order
//! and steps each node's [`serve_one`] state machine for every drained
//! envelope. Nodes keep fully independent protocol state — the reactor is
//! pure scheduling.
//!
//! # Determinism
//!
//! The reactor introduces no nondeterminism into virtual time or wire
//! traffic, for two reasons:
//!
//! * every reply is timed `envelope.arrives_at + service_cost` — the
//!   request's *virtual* arrival plus a modelled service cost — so when the
//!   reactor got around to a message is invisible to the clocks;
//! * each node's request port is a FIFO and handlers of different nodes
//!   share no protocol state, so the only scheduling freedom is the
//!   interleaving *across* nodes, which the fixed ascending-node-id sweep
//!   resolves the same way every run.
//!
//! Together these make a run's checksums and gated bench records
//! bit-identical for any reactor count (see `DESIGN.md` §10).
//!
//! # Liveness
//!
//! The reactor parks on a [`Doorbell`] only when a full sweep served
//! nothing, and it reads the bell's epoch *before* the sweep: a message
//! enqueued at any point after that read changes the epoch and makes the
//! park return immediately, so no wakeup is ever lost. The park is bounded
//! by the watchdog, but a timeout is *not* an error — an idle reactor
//! between requests is the normal quiescent state (it is the compute side
//! whose unanswered wait signals a wedge), so the loop just re-polls and
//! parks again. While parked, every live lane's server slot on the wait
//! board carries an idle label, so a watchdog dump still names each
//! multiplexed node individually.

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use msgnet::{Doorbell, Endpoint, Port};
use sp2model::ReactorStats;

use crate::message::TmkMessage;
use crate::server::{serve_one, Served};
use crate::state::NodeShared;

/// One node as seen by its reactor: the endpoint it is served through, the
/// protocol state the handlers run against, and whether it is still live.
pub(crate) struct Lane {
    pub(crate) endpoint: Arc<Endpoint<TmkMessage>>,
    pub(crate) shared: Arc<NodeShared>,
    /// Cleared when the node's shutdown poison arrives or a handler
    /// panics; a dead lane is never polled again.
    live: bool,
}

impl Lane {
    pub(crate) fn new(endpoint: Arc<Endpoint<TmkMessage>>, shared: Arc<NodeShared>) -> Lane {
        Lane { endpoint, shared, live: true }
    }
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("node", &self.endpoint.id())
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

/// Runs one reactor until every lane is dead (shut down or panicked).
///
/// `lanes` must be sorted by ascending node id — that order *is* the
/// deterministic ready-selection rule. `on_dead(node, panic)` is called
/// once per lane whose handler panicked, with the panic payload; the
/// caller decides how to classify and surface it (the lane is already
/// retired when the callback runs).
pub(crate) fn reactor_loop<F>(
    mut lanes: Vec<Lane>,
    bell: &Doorbell,
    stats: &ReactorStats,
    watchdog: Duration,
    mut on_dead: F,
) where
    F: FnMut(usize, Box<dyn Any + Send>),
{
    debug_assert!(
        lanes.windows(2).all(|w| w[0].endpoint.id() < w[1].endpoint.id()),
        "lanes must be sorted by node id: the sweep order is the determinism rule"
    );
    loop {
        // Read the epoch before polling: a ring between this read and the
        // park below makes `wait_changed` return immediately, so a message
        // enqueued mid-sweep can never strand the reactor in a park.
        let seen = bell.epoch();
        stats.polls(1);
        let mut served_this_sweep = 0u64;
        for lane in lanes.iter_mut().filter(|lane| lane.live) {
            stats.note_queue_depth(lane.endpoint.backlog(Port::Request) as u64);
            while let Some(envelope) = lane.endpoint.try_recv(Port::Request) {
                served_this_sweep += 1;
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_one(&lane.endpoint, &lane.shared, envelope)
                }));
                match outcome {
                    Ok(Served::Continue) => {}
                    Ok(Served::Shutdown) => {
                        lane.live = false;
                        break;
                    }
                    Err(panic) => {
                        lane.live = false;
                        on_dead(lane.endpoint.id().index(), panic);
                        break;
                    }
                }
            }
        }
        stats.served(served_this_sweep);
        if lanes.iter().all(|lane| !lane.live) {
            return;
        }
        if served_this_sweep > 0 {
            continue;
        }
        // Quiescent: park until a sender rings, labelling every multiplexed
        // node's server slot so a watchdog dump names each one. A timeout
        // just re-arms the poll — idleness is not an error here. The bound
        // is a liveness backstop only (every legitimate wake, including
        // teardown's shutdown poison, arrives by ring); doubling the
        // watchdog keeps a compute-side dump — taken after exactly one
        // `watchdog` of silence — from racing the brief label-clear window
        // of a timeout re-poll.
        for lane in lanes.iter().filter(|lane| lane.live) {
            lane.shared.run.board.wait(
                lane.endpoint.id().index(),
                true,
                String::from("the next protocol request (idle)"),
            );
        }
        bell.wait_changed(seen, watchdog.saturating_mul(2));
        stats.wakeups(1);
        for lane in lanes.iter().filter(|lane| lane.live) {
            lane.shared.run.board.done(lane.endpoint.id().index(), true);
        }
    }
}
