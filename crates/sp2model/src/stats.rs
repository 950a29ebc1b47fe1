//! Protocol event counters.
//!
//! Table 2 of the paper reports the percentage reduction in page faults
//! ("segv"), messages and data achieved by the compiler-optimized system over
//! base TreadMarks; Figures 5–7 are derived from the same counters plus the
//! virtual clocks. Every crate in the workspace records its events through
//! [`SharedStats`] so the benchmark harness can aggregate them per run.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! define_stats {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Atomic event counters shared between a node's compute thread and
        /// its protocol-server thread.
        ///
        /// Cloning a `SharedStats` produces another handle onto the same
        /// counters; call [`snapshot`](Self::snapshot) to obtain a plain-value
        /// copy for reporting.
        #[derive(Debug, Clone, Default)]
        pub struct SharedStats {
            inner: Arc<StatsInner>,
        }

        #[derive(Debug, Default)]
        struct StatsInner {
            $($name: AtomicU64,)*
        }

        /// A plain-value copy of a [`SharedStats`] at one point in time.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl SharedStats {
            /// Creates a fresh set of zeroed counters.
            pub fn new() -> Self {
                SharedStats::default()
            }

            $(
                $(#[$doc])*
                ///
                /// Increments the counter by `n`.
                pub fn $name(&self, n: u64) {
                    self.inner.$name.fetch_add(n, Ordering::Relaxed);
                }
            )*

            /// Takes a plain-value snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.inner.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        impl StatsSnapshot {
            /// Field-wise sum of two snapshots.
            fn merge(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name + other.$name,)*
                }
            }
        }
    };
}

define_stats! {
    /// Page faults taken through the DSM access check (the paper's "segv").
    page_faults,
    /// Memory protection (mprotect-equivalent) operations.
    protection_ops,
    /// Twins created by the write-detection mechanism.
    twins_created,
    /// Modelled diff encodings, counted at the node that serves them: one
    /// per record of a diff response or grant piggyback (bases and whole
    /// pages included), one per distinct `(page, interval)` of a barrier's
    /// serve. The host encodes a delta once, at its first read.
    diffs_created,
    /// Diffs applied to local pages.
    diffs_applied,
    /// Messages sent (requests, responses, data, synchronization).
    messages_sent,
    /// Payload bytes sent over the interconnect.
    bytes_sent,
    /// Whole pages fetched (first access to a page with no local copy).
    full_page_fetches,
    /// Write notices received and recorded.
    write_notices,
    /// Lock acquire operations performed by the application.
    lock_acquires,
    /// Barrier operations performed by the application.
    barriers,
    /// `Validate` calls issued by the compiler interface.
    validates,
    /// `Validate_w_sync` calls issued by the compiler interface.
    validate_w_syncs,
    /// `Push` exchanges replacing barriers.
    pushes,
    /// Split-phase `Validate_w_sync` calls: each issued its fetch at a
    /// synchronization point, ran an overlap body and completed.
    split_phase_issues,
    /// Virtual nanoseconds a completion actually stalled waiting for sync
    /// responses (`max(arrival) - now`, clamped at zero). Work done in the
    /// overlap body hides fetch latency and shrinks this number — the
    /// split-phase overlap made measurable.
    sync_wait_ns,
    /// Diff-cache entries dropped by the barrier garbage-collection horizon
    /// (every processor had incorporated — or provably never needs — the
    /// trimmed interval's modifications).
    gc_trimmed_diffs,
    /// Notice-log interval records dropped by the same horizon.
    gc_trimmed_notices,
    /// Broadcast sends (one logical message delivered to all other nodes).
    broadcasts,
    /// Acquisitions of a node's global page-table lock (the serialisation
    /// point the software-TLB fast path exists to avoid).
    table_lock_acquires,
    /// Shared accesses served from the software TLB without touching the
    /// global page-table lock.
    tlb_hits,
    /// Shared accesses that missed (or were staled out of) the software TLB
    /// and took the slow, table-locked path.
    tlb_misses,
    /// Always 0: nothing increments it. It counted the neighbour
    /// synchronizations that replaced barriers, which no longer exist; the
    /// benchmark still reads it.
    neighbor_syncs,
    /// Always 0, like `neighbor_syncs`: the barriers those replaced.
    barriers_eliminated,
    /// Always 0, like `neighbor_syncs`: their merged data+sync acks.
    merged_sync_msgs,
    /// Data races observed by the on-the-fly detector: concurrent-interval
    /// pairs with overlapping word-write sets, counted once per detection
    /// site (the deduplicated report list can be shorter — the same pair may
    /// be observed by several processors).
    races_detected,
    /// Diff applications the race detector could not check because the
    /// garbage-collection horizon had already dropped the relevant interval
    /// history, served only inside a full-page base (a potential race in
    /// the trimmed window, counted instead of silently ignored).
    races_window_trimmed,
    /// Modelled retransmissions: transmission attempts the fault plan
    /// dropped, each masked by a timeout-and-resend of the modelled ARQ
    /// (sender side, deterministic per seed).
    net_retransmits,
    /// Messages the fault plan duplicated in flight. The ARQ's sequence
    /// number discards the copy, so it costs nothing and is delivered once
    /// (sender side, deterministic per seed).
    net_dups,
    /// Messages the fault plan reordered behind later same-link traffic.
    /// The ARQ restores send order at unchanged arrival time, so this too is
    /// counted, not charged (sender side, deterministic per seed).
    net_reorders,
    /// Messages given extra link delay by the fault plan (sender side,
    /// deterministic per seed).
    net_delays,
    /// Virtual nanoseconds of latency added by injected faults: retransmit
    /// timeouts plus link-delay jitter (sender side, deterministic per seed).
    net_added_delay_ns,
}

/// Serving counters of one node's request port: how often a thread drained
/// it and how much it found there. (The name is the pre-drain-on-send one,
/// kept until the benchmark's `[benchmark]` PR renames it.)
///
/// Kept separate from [`SharedStats`] on purpose. The per-node protocol
/// counters are deterministic functions of the simulated execution and are
/// compared bit-for-bit across runs; how many requests one drain finds
/// depends on real-time scheduling (which thread got to the port first), so
/// these counters are *informational* and must never enter a byte-pinned
/// report.
#[derive(Debug, Clone, Default)]
pub struct ReactorStats {
    inner: Arc<ReactorInner>,
}

#[derive(Debug, Default)]
struct ReactorInner {
    polls: AtomicU64,
    served: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl ReactorStats {
    /// Creates a fresh set of zeroed counters.
    pub fn new() -> ReactorStats {
        ReactorStats::default()
    }

    /// Counts `n` drains that found work on the port.
    pub fn polls(&self, n: u64) {
        self.inner.polls.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` requests served.
    pub fn served(&self, n: u64) {
        self.inner.served.fetch_add(n, Ordering::Relaxed);
    }

    /// Records the backlog a drain started on, keeping the maximum.
    pub fn note_queue_depth(&self, depth: u64) {
        self.inner.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Takes a plain-value snapshot of all counters.
    pub fn snapshot(&self) -> ReactorSnapshot {
        ReactorSnapshot {
            polls: self.inner.polls.load(Ordering::Relaxed),
            wakeups: 0,
            served: self.inner.served.load(Ordering::Relaxed),
            max_queue_depth: self.inner.max_queue_depth.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of one node's [`ReactorStats`] at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorSnapshot {
    /// Drains that found work on the node's request port.
    pub polls: u64,
    /// Always 0: nothing parks waiting for requests any more. Kept so the
    /// benchmark's pinned surface compiles unchanged.
    pub wakeups: u64,
    /// Requests drained from the node's request port.
    pub served: u64,
    /// Deepest backlog a drain of the node's request port started on.
    pub max_queue_depth: u64,
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segv={} mprotect={} twins={} diffs={} msgs={} bytes={} locks={} barriers={}",
            self.page_faults,
            self.protection_ops,
            self.twins_created,
            self.diffs_created,
            self.messages_sent,
            self.bytes_sent,
            self.lock_acquires,
            self.barriers
        )
    }
}

/// Statistics for a whole cluster run: one snapshot per node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    nodes: Vec<StatsSnapshot>,
}

impl ClusterStats {
    /// Field-wise sum over all nodes.
    pub fn total(&self) -> StatsSnapshot {
        self.nodes.iter().fold(StatsSnapshot::default(), |acc, s| acc.merge(s))
    }
}

impl FromIterator<StatsSnapshot> for ClusterStats {
    fn from_iter<I: IntoIterator<Item = StatsSnapshot>>(iter: I) -> Self {
        ClusterStats { nodes: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = SharedStats::new();
        stats.page_faults(3);
        stats.messages_sent(2);
        stats.bytes_sent(100);
        let snap = stats.snapshot();
        assert_eq!(snap.page_faults, 3);
        assert_eq!(snap.messages_sent, 2);
        assert_eq!(snap.bytes_sent, 100);
        assert_eq!(snap.twins_created, 0);
    }

    #[test]
    fn clones_share_the_same_counters() {
        let a = SharedStats::new();
        let b = a.clone();
        a.diffs_created(1);
        b.diffs_created(2);
        assert_eq!(a.snapshot().diffs_created, 3);
    }

    #[test]
    fn snapshot_merge_is_fieldwise() {
        let a = StatsSnapshot { page_faults: 1, bytes_sent: 10, ..Default::default() };
        let b = StatsSnapshot { page_faults: 2, messages_sent: 5, ..Default::default() };
        let m = a.merge(&b);
        assert_eq!(m.page_faults, 3);
        assert_eq!(m.bytes_sent, 10);
        assert_eq!(m.messages_sent, 5);
    }

    #[test]
    fn cluster_total_sums_the_nodes() {
        let node = StatsSnapshot { page_faults: 50, messages_sent: 100, ..Default::default() };
        let cluster: ClusterStats = vec![node, node].into_iter().collect();
        let total = cluster.total();
        assert_eq!((total.page_faults, total.messages_sent), (100, 200));
    }

    #[test]
    fn reactor_counters_accumulate_and_track_the_peak_depth() {
        let r = ReactorStats::new();
        let shared = r.clone();
        r.polls(2);
        shared.served(6);
        r.note_queue_depth(3);
        r.note_queue_depth(7);
        r.note_queue_depth(5);
        let snap = r.snapshot();
        assert_eq!(snap.polls, 2);
        assert_eq!(snap.wakeups, 0, "nothing parks, so nothing wakes");
        assert_eq!(snap.served, 6, "clones share the counters");
        assert_eq!(snap.max_queue_depth, 7, "the depth counter keeps the maximum, not the sum");
    }

    #[test]
    fn cluster_from_iterator() {
        let c: ClusterStats = (0..4).map(|_| StatsSnapshot::default()).collect();
        assert_eq!(c.nodes.len(), 4);
    }
}
