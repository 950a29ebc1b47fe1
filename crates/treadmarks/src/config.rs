//! Runtime configuration.

use std::time::Duration;

use msgnet::NetFaults;
use racecheck::RaceDetect;
use sp2model::{CostModel, VirtualTime};

/// How the barrier exchange is structured across the processors.
///
/// Every topology runs the same schedule over a k-ary reduction/broadcast
/// tree rooted at processor 0; a topology only supplies its constants (see
/// [`shape`](Self::shape)). The paper's stock TreadMarks routes every
/// arrival to processor 0 and every departure back out of it — the tree of
/// arity `n − 1`, whose master serializes O(n) message handling per
/// barrier. A narrower tree spreads that work so the critical path is
/// O(arity · log n).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierTopology {
    /// The stock master-centric exchange: the tree of arity `n − 1`, every
    /// processor a child of processor 0, priced at stock TreadMarks's
    /// constants — interrupt-path messages and the master's
    /// `barrier_master_per_proc_ns` per child served and before the first
    /// departure copy. Kept for measurement against the tree and as the
    /// reproduction of the paper's ~893 µs 8-processor barrier.
    FlatMaster,
    /// A k-ary reduction/broadcast tree rooted at processor 0 (node `i`'s
    /// children are `i·k+1 ..= i·k+k`): arrivals merge notices, vector
    /// timestamps and piggybacked fetch requests on the way up, departures
    /// fan the merged global state back down. Hop messages travel on the
    /// polled (no-interrupt) path — every participant is blocked in the
    /// barrier with its receive pre-posted — and each hop charges a
    /// per-child service cost, so model time reflects the O(log n) critical
    /// path.
    Tree {
        /// Fan-out of the reduction/broadcast tree (must be at least 1).
        arity: usize,
    },
    /// A tree whose fan-out is derived from the cluster size and the cost
    /// model's hop/service ratio at run start (see
    /// [`BarrierTopology::optimal_tree_arity`]) instead of a fixed constant:
    /// deeper trees pay more polled hop latencies on the critical path,
    /// wider trees serialize more per-child merge work at each node, and the
    /// best trade-off moves with both `nprocs` and the constants. This is
    /// the default; `Tree { arity }` remains the explicit-override path.
    #[default]
    Adaptive,
}

impl BarrierTopology {
    /// The fallback tree fan-out (and the arity the adaptive choice is
    /// benchmarked against).
    pub const DEFAULT_ARITY: usize = 2;

    /// Depth of the k-ary-heap tree over `nprocs` nodes: hops from the
    /// deepest leaf to the root.
    fn tree_depth(nprocs: usize, arity: usize) -> usize {
        let mut node = nprocs.saturating_sub(1);
        let mut depth = 0;
        while node > 0 {
            node = (node - 1) / arity;
            depth += 1;
        }
        depth
    }

    /// The fan-out that minimises the modelled critical path of one barrier
    /// over `nprocs` processors: per tree level the reduction pays one
    /// polled message latency plus `arity` per-child hop services, and the
    /// broadcast pays one hop service, the extra per-destination broadcast
    /// preparation and another polled message. The candidate set includes
    /// arity 2, so the adaptive choice is never modelled slower than the
    /// fixed default (ties resolve to the smaller arity). The modelled path
    /// is the simultaneous-arrival bound — every child there at once, every
    /// departure copy paying the last copy's gap — which a tree node that
    /// serves each arrival as it comes and sends each copy as it is built
    /// can only beat.
    pub fn optimal_tree_arity(nprocs: usize, cost: &CostModel) -> usize {
        let mut best = (u64::MAX, Self::DEFAULT_ARITY);
        for arity in 2..=nprocs.saturating_sub(1).max(2) {
            let depth = Self::tree_depth(nprocs, arity) as u64;
            let up = cost.msg_fixed_polled_ns + arity as u64 * cost.barrier_hop_per_child_ns;
            let down = cost.barrier_hop_per_child_ns
                + (arity as u64 - 1) * cost.broadcast_extra_per_dest_ns
                + cost.msg_fixed_polled_ns;
            let path = depth * (up + down);
            if path < best.0 {
                best = (path, arity);
            }
        }
        best.1
    }

    /// The three constants the barrier schedule of an `nprocs`-processor run
    /// reads: `(arity, per_child, interrupt)` — the reduction tree's fan-out,
    /// a node's service per child's arrival and before its first departure
    /// copy, and whether hop messages take the interrupt path. A tree pays
    /// the polled hop service; the flat master is the tree of arity
    /// `nprocs − 1` at the master's per-processor charge, on the interrupt
    /// path.
    pub fn shape(self, nprocs: usize, cost: &CostModel) -> (usize, VirtualTime, bool) {
        let hop = cost.barrier_hop_cost(1);
        match self {
            BarrierTopology::FlatMaster => (
                nprocs.saturating_sub(1).max(1),
                VirtualTime::from_nanos(cost.barrier_master_per_proc_ns),
                true,
            ),
            BarrierTopology::Tree { arity } => (arity.max(1), hop, false),
            BarrierTopology::Adaptive => (Self::optimal_tree_arity(nprocs, cost), hop, false),
        }
    }
}

/// Configuration of a DSM run.
///
/// ```
/// use treadmarks::{BarrierTopology, DsmConfig};
/// use sp2model::CostModel;
///
/// let config = DsmConfig::new(8).with_cost_model(CostModel::sp2());
/// assert_eq!(config.nprocs, 8);
/// // The default barrier is a tree whose arity adapts to the cluster.
/// assert_eq!(config.barrier, BarrierTopology::Adaptive);
/// let (arity, _, interrupt) = config.barrier.shape(8, &config.cost_model);
/// assert!(arity >= 2 && !interrupt);
/// ```
#[derive(Debug, Clone)]
pub struct DsmConfig {
    /// Number of processors (nodes) to simulate.
    pub nprocs: usize,
    /// Cost model used for virtual-time accounting.
    pub cost_model: CostModel,
    /// Barrier exchange topology (default: adaptive-arity reduction tree).
    pub barrier: BarrierTopology,
    /// Data-race detection mode (default: off). When enabled, every apply
    /// of remote modifications checks the incoming word-write sets against
    /// concurrent local history and records [`racecheck::RaceReport`]s.
    pub race_detect: RaceDetect,
    /// Deterministic fault injection on the simulated interconnect
    /// (default: off). `None` keeps the wire format, virtual times and
    /// statistics byte-identical to a build without the fault layer; `Some`
    /// enables the seeded drop/duplicate/delay/reorder schedule, resolved at
    /// send time into added latency and ARQ header bytes.
    pub net_faults: Option<NetFaults>,
    /// Real-time watchdog on every blocking protocol receive (default:
    /// 30 s). If a processor waits longer than this for a message, the run
    /// panics with a dump of every processor's wait state instead of
    /// hanging — a protocol deadlock becomes a failing test. Generous by
    /// default so slow CI machines never trip it spuriously.
    pub watchdog: Duration,
}

impl DsmConfig {
    /// The default watchdog deadline for blocking protocol receives.
    pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

    /// A configuration for `nprocs` processors with the SP/2 cost model and
    /// the adaptive-arity tree barrier.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero.
    pub fn new(nprocs: usize) -> DsmConfig {
        assert!(nprocs > 0, "a DSM run needs at least one processor");
        DsmConfig {
            nprocs,
            cost_model: CostModel::sp2(),
            barrier: BarrierTopology::default(),
            race_detect: RaceDetect::Off,
            net_faults: None,
            watchdog: Self::DEFAULT_WATCHDOG,
        }
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost_model: CostModel) -> DsmConfig {
        self.cost_model = cost_model;
        self
    }

    /// Replaces the barrier topology.
    ///
    /// # Panics
    ///
    /// Panics if a tree topology with arity zero is given.
    pub fn with_barrier(mut self, barrier: BarrierTopology) -> DsmConfig {
        if let BarrierTopology::Tree { arity } = barrier {
            assert!(arity > 0, "a barrier tree needs an arity of at least 1");
        }
        self.barrier = barrier;
        self
    }

    /// Selects a tree barrier with the given fan-out.
    pub fn with_barrier_arity(self, arity: usize) -> DsmConfig {
        self.with_barrier(BarrierTopology::Tree { arity })
    }

    /// Selects the stock master-centric barrier.
    pub fn with_flat_barrier(self) -> DsmConfig {
        self.with_barrier(BarrierTopology::FlatMaster)
    }

    /// Replaces the race-detection mode.
    pub fn with_race_detect(mut self, race_detect: RaceDetect) -> DsmConfig {
        self.race_detect = race_detect;
        self
    }

    /// Enables (or, with `None`, disables) deterministic fault injection on
    /// the interconnect.
    pub fn with_net_faults(mut self, net_faults: Option<NetFaults>) -> DsmConfig {
        self.net_faults = net_faults;
        self
    }

    /// Replaces the real-time receive watchdog.
    ///
    /// # Panics
    ///
    /// Panics if `watchdog` is zero — every blocking receive would time out
    /// immediately.
    pub fn with_watchdog(mut self, watchdog: Duration) -> DsmConfig {
        assert!(!watchdog.is_zero(), "the watchdog deadline must be positive");
        self.watchdog = watchdog;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_override_defaults() {
        let c = DsmConfig::new(4).with_cost_model(CostModel::free());
        assert_eq!(c.nprocs, 4);
        assert_eq!(c.cost_model, CostModel::free());
    }

    #[test]
    fn race_detect_defaults_off_and_builder_overrides() {
        let c = DsmConfig::new(2);
        assert_eq!(c.race_detect, RaceDetect::Off);
        let c = c.with_race_detect(RaceDetect::Collect);
        assert_eq!(c.race_detect, RaceDetect::Collect);
    }

    #[test]
    fn barrier_topology_builders() {
        let c = DsmConfig::new(8).with_barrier_arity(4);
        assert_eq!(c.barrier, BarrierTopology::Tree { arity: 4 });
        let c = c.with_flat_barrier();
        assert_eq!(c.barrier, BarrierTopology::FlatMaster);
    }

    #[test]
    fn adaptive_arity_resolves_and_explicit_overrides_pass_through() {
        let cost = CostModel::sp2();
        let (hop, master) = (VirtualTime::from_micros(25), VirtualTime::from_micros(60));
        for nprocs in [1, 2, 4, 8, 16, 32] {
            let (arity, per_child, interrupt) = BarrierTopology::Adaptive.shape(nprocs, &cost);
            assert_eq!((per_child, interrupt), (hop, false), "adaptive must resolve to a tree");
            assert!(arity >= 2, "arity {arity} at {nprocs} procs");
            assert!(arity < nprocs.max(3) || nprocs <= 3);
        }
        // Explicit topologies are untouched; the flat master is the
        // degenerate tree at the master's constants, also on one processor.
        assert_eq!(BarrierTopology::Tree { arity: 3 }.shape(8, &cost), (3, hop, false));
        assert_eq!(BarrierTopology::FlatMaster.shape(8, &cost), (7, master, true));
        assert_eq!(BarrierTopology::FlatMaster.shape(1, &cost), (1, master, true));
    }

    #[test]
    fn adaptive_arity_is_never_modelled_slower_than_arity_two() {
        // The candidate set includes arity 2, so the modelled critical path
        // of the chosen arity is at most the binary tree's at any size.
        let cost = CostModel::sp2();
        let path = |nprocs: usize, arity: usize| {
            let depth = BarrierTopology::tree_depth(nprocs, arity) as u64;
            let up = cost.msg_fixed_polled_ns + arity as u64 * cost.barrier_hop_per_child_ns;
            let down = cost.barrier_hop_per_child_ns
                + (arity as u64 - 1) * cost.broadcast_extra_per_dest_ns
                + cost.msg_fixed_polled_ns;
            depth * (up + down)
        };
        for nprocs in [2, 4, 8, 16] {
            let chosen = BarrierTopology::optimal_tree_arity(nprocs, &cost);
            assert!(
                path(nprocs, chosen) <= path(nprocs, 2),
                "arity {chosen} must not be modelled slower than 2 at {nprocs} procs"
            );
        }
    }

    #[test]
    fn the_adaptive_tree_shape_is_pinned_from_2_to_128_processors() {
        // `(first nprocs, last nprocs, arity)` under the SP/2 constants, as
        // chosen before tree nodes served arrivals as they came and sent
        // each departure copy as it was built: the schedule changed, the
        // shape did not.
        const SHAPE: [(usize, usize, usize); 18] = [
            (2, 3, 2),
            (4, 4, 3),
            (5, 5, 4),
            (6, 6, 5),
            (7, 7, 6),
            (8, 8, 7),
            (9, 9, 8),
            (10, 10, 9),
            (11, 11, 10),
            (12, 13, 3),
            (14, 21, 4),
            (22, 31, 5),
            (32, 43, 6),
            (44, 57, 7),
            (58, 73, 8),
            (74, 85, 4),
            (86, 91, 9),
            (92, 128, 5),
        ];
        let cost = CostModel::sp2();
        for (first, last, arity) in SHAPE {
            for nprocs in first..=last {
                assert_eq!(
                    BarrierTopology::optimal_tree_arity(nprocs, &cost),
                    arity,
                    "{nprocs} processors"
                );
            }
        }
    }

    #[test]
    fn net_faults_default_off_and_builder_overrides() {
        use msgnet::NetFaults;
        let c = DsmConfig::new(2);
        assert!(c.net_faults.is_none(), "faults must be off unless asked for");
        assert_eq!(c.watchdog, DsmConfig::DEFAULT_WATCHDOG);
        let c =
            c.with_net_faults(Some(NetFaults::chaos(7))).with_watchdog(Duration::from_millis(500));
        assert_eq!(c.net_faults.as_ref().map(|f| f.plan.seed()), Some(7));
        assert_eq!(c.watchdog, Duration::from_millis(500));
        assert!(c.with_net_faults(None).net_faults.is_none());
    }

    #[test]
    #[should_panic(expected = "watchdog")]
    fn zero_watchdog_is_rejected() {
        let _ = DsmConfig::new(2).with_watchdog(Duration::ZERO);
    }

    #[test]
    #[should_panic]
    fn zero_processors_is_rejected() {
        let _ = DsmConfig::new(0);
    }

    #[test]
    #[should_panic]
    fn zero_arity_is_rejected() {
        let _ = DsmConfig::new(4).with_barrier_arity(0);
    }
}
