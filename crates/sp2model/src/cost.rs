//! The IBM SP/2 cost model.
//!
//! All constants default to the values measured in Section 5 of the paper
//! (AIX 3.2.5, thin nodes, user-space MPL):
//!
//! * minimum round-trip for the smallest message, including an interrupt:
//!   365 µs,
//! * minimum time to acquire a free lock: 427 µs,
//! * minimum 8-processor barrier: 893 µs,
//! * page fault and memory-protection costs that are a linear function of the
//!   number of pages in use (18–800 µs with 2000 pages in use).

use crate::VirtualTime;

/// Models the cost of every primitive operation charged to a virtual clock.
///
/// The DSM runtime, the message-passing baselines and the applications all
/// charge their work through one shared `CostModel`, so alternative platforms
/// can be explored by swapping the constants.
///
/// ```
/// use sp2model::CostModel;
/// let m = CostModel::sp2();
/// // Round-trip of a minimum-size message with interrupts enabled is ~365us.
/// let rt = m.roundtrip_cost(0, true);
/// assert!((360..400).contains(&rt.as_micros()));
/// // Every field is public: a variant is the SP/2 with some fields replaced.
/// let fast_net = CostModel { msg_fixed_interrupt_ns: 10_000, ..CostModel::sp2() };
/// assert!(fast_net.message_cost(0, true) < m.message_cost(0, true));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fixed one-way cost of a message when the receiver takes an interrupt
    /// (TreadMarks lock/page/diff requests), in nanoseconds.
    pub msg_fixed_interrupt_ns: u64,
    /// Fixed one-way cost of a message when interrupts are disabled
    /// (hand-coded and compiler-generated message passing), in nanoseconds.
    pub msg_fixed_polled_ns: u64,
    /// Per-byte wire cost, in nanoseconds.
    pub msg_per_byte_ns: f64,
    /// Per-destination cost of preparing a broadcast beyond the first copy.
    pub broadcast_extra_per_dest_ns: u64,
    /// Fixed handler cost on the node that services a remote request.
    pub request_service_ns: u64,
    /// Base cost of taking a page fault (protection violation), excluding the
    /// per-page-in-use component.
    pub page_fault_base_ns: u64,
    /// Additional page-fault cost per page currently in use (AIX's fault time
    /// grows with the size of the address space in use).
    pub page_fault_per_page_ns: f64,
    /// Base cost of one memory-protection (mprotect) operation.
    pub mprotect_base_ns: u64,
    /// Additional mprotect cost per page currently in use.
    pub mprotect_per_page_ns: f64,
    /// Cost of twinning one page (copy of 4 KiB).
    pub twin_page_ns: u64,
    /// Cost of creating a diff for one page (word-by-word comparison).
    pub diff_create_page_ns: u64,
    /// Per-byte cost of applying a diff into a page.
    pub diff_apply_per_byte_ns: f64,
    /// Fixed cost of applying a diff (call overhead).
    pub diff_apply_base_ns: u64,
    /// Processing cost on the lock manager / last releaser per lock grant.
    pub lock_manager_ns: u64,
    /// Processing cost on the barrier master per arriving processor: the
    /// per-child service of the flat topology's tree of arity `n − 1`, which
    /// the root also pays once before its first departure copy, so an
    /// `n`-processor master serializes `n` of them.
    pub barrier_master_per_proc_ns: u64,
    /// Per-child service cost at one hop of a tree-structured barrier:
    /// consuming a pre-posted (polled, no interrupt) arrival or departure
    /// and merging its vector timestamp and write notices. Smaller than
    /// [`barrier_master_per_proc_ns`](Self::barrier_master_per_proc_ns)
    /// because the flat master's per-processor figure includes the interrupt
    /// dispatch that the dedicated tree exchange avoids (compare the paper's
    /// 365 µs round trip *including an interrupt* with the polled path).
    pub barrier_hop_per_child_ns: u64,
    /// Processing cost on every processor per barrier (local bookkeeping,
    /// write-notice handling).
    pub barrier_local_ns: u64,
    /// Extra per-page cost of scanning a requested section at a
    /// `Fetch_diffs_w_sync` (Section 3.3: every processor must examine
    /// potentially large address ranges it did not modify).
    pub sync_merge_scan_per_page_ns: u64,
}

impl CostModel {
    /// The default model: the 8-node IBM SP/2 measured in the paper.
    pub fn sp2() -> Self {
        CostModel {
            // One-way with interrupt: ~182us so that the round trip of a
            // minimum message is ~365us (Section 5).
            msg_fixed_interrupt_ns: 182_500,
            // Interrupts disabled (PVMe / XHPF): substantially faster.
            msg_fixed_polled_ns: 90_000,
            // ~35 MB/s user-space bandwidth on the SP/2 high-performance
            // switch => ~28.5 ns/byte.
            msg_per_byte_ns: 28.5,
            broadcast_extra_per_dest_ns: 15_000,
            request_service_ns: 30_000,
            // AIX 3.2.5: fault and mprotect times are linear in pages in use;
            // mprotect observed between 18us and 800us with 2000 pages in use.
            page_fault_base_ns: 18_000,
            page_fault_per_page_ns: 100.0,
            mprotect_base_ns: 18_000,
            mprotect_per_page_ns: 95.0,
            twin_page_ns: 28_000,
            diff_create_page_ns: 55_000,
            diff_apply_per_byte_ns: 10.0,
            diff_apply_base_ns: 8_000,
            lock_manager_ns: 62_000,
            barrier_master_per_proc_ns: 60_000,
            barrier_hop_per_child_ns: 25_000,
            barrier_local_ns: 40_000,
            sync_merge_scan_per_page_ns: 9_000,
        }
    }

    /// A model in which communication and memory-management overheads are
    /// negligible; useful for functional tests where only event counts matter.
    pub fn free() -> Self {
        CostModel {
            msg_fixed_interrupt_ns: 0,
            msg_fixed_polled_ns: 0,
            msg_per_byte_ns: 0.0,
            broadcast_extra_per_dest_ns: 0,
            request_service_ns: 0,
            page_fault_base_ns: 0,
            page_fault_per_page_ns: 0.0,
            mprotect_base_ns: 0,
            mprotect_per_page_ns: 0.0,
            twin_page_ns: 0,
            diff_create_page_ns: 0,
            diff_apply_per_byte_ns: 0.0,
            diff_apply_base_ns: 0,
            lock_manager_ns: 0,
            barrier_master_per_proc_ns: 0,
            barrier_hop_per_child_ns: 0,
            barrier_local_ns: 0,
            sync_merge_scan_per_page_ns: 0,
        }
    }

    /// One-way cost of sending a message of `bytes` payload bytes.
    ///
    /// `interrupt` selects between the interrupt-driven path used by the DSM
    /// runtime and the polled path used by the message-passing baselines.
    pub fn message_cost(&self, bytes: usize, interrupt: bool) -> VirtualTime {
        let fixed = if interrupt { self.msg_fixed_interrupt_ns } else { self.msg_fixed_polled_ns };
        VirtualTime::from_nanos(fixed + (bytes as f64 * self.msg_per_byte_ns) as u64)
    }

    /// Round-trip cost of a request/response pair carrying `bytes` in the
    /// response and a minimum-size request.
    pub fn roundtrip_cost(&self, response_bytes: usize, interrupt: bool) -> VirtualTime {
        self.message_cost(0, interrupt) + self.message_cost(response_bytes, interrupt)
    }

    /// Cost of a page fault (protection violation trap plus kernel work) when
    /// `pages_in_use` pages are currently mapped.
    pub fn page_fault_cost(&self, pages_in_use: usize) -> VirtualTime {
        VirtualTime::from_nanos(
            self.page_fault_base_ns + (pages_in_use as f64 * self.page_fault_per_page_ns) as u64,
        )
    }

    /// Cost of one memory-protection operation when `pages_in_use` pages are
    /// currently mapped.
    pub fn mprotect_cost(&self, pages_in_use: usize) -> VirtualTime {
        VirtualTime::from_nanos(
            self.mprotect_base_ns + (pages_in_use as f64 * self.mprotect_per_page_ns) as u64,
        )
    }

    /// Cost of twinning `pages` pages.
    pub fn twin_cost(&self, pages: usize) -> VirtualTime {
        VirtualTime::from_nanos(self.twin_page_ns).scale(pages as u64)
    }

    /// Cost of creating diffs for `pages` pages.
    pub fn diff_create_cost(&self, pages: usize) -> VirtualTime {
        VirtualTime::from_nanos(self.diff_create_page_ns).scale(pages as u64)
    }

    /// Cost of applying a diff of `bytes` encoded bytes.
    pub fn diff_apply_cost(&self, bytes: usize) -> VirtualTime {
        VirtualTime::from_nanos(
            self.diff_apply_base_ns + (bytes as f64 * self.diff_apply_per_byte_ns) as u64,
        )
    }

    /// Cost charged to the processor that services a remote request.
    pub fn request_service_cost(&self) -> VirtualTime {
        VirtualTime::from_nanos(self.request_service_ns)
    }

    /// Manager-side processing cost of granting a lock.
    pub fn lock_manager_cost(&self) -> VirtualTime {
        VirtualTime::from_nanos(self.lock_manager_ns)
    }

    /// Service cost of one tree-barrier hop that merges `children` child
    /// messages (arrivals on the way up, or the departure it re-fans on the
    /// way down). Charged at every interior node, so the barrier's critical
    /// path scales with the tree depth times the arity instead of the flat
    /// master's O(n) serialization.
    pub fn barrier_hop_cost(&self, children: usize) -> VirtualTime {
        VirtualTime::from_nanos(self.barrier_hop_per_child_ns).scale(children as u64)
    }

    /// Per-processor local cost of participating in a barrier.
    pub fn barrier_local_cost(&self) -> VirtualTime {
        VirtualTime::from_nanos(self.barrier_local_ns)
    }

    /// Extra scan cost per page examined when a fetch is merged with a
    /// synchronization operation.
    pub fn sync_merge_scan_cost(&self, pages: usize) -> VirtualTime {
        VirtualTime::from_nanos(self.sync_merge_scan_per_page_ns).scale(pages as u64)
    }

    /// Extra cost of sending the same payload to each additional broadcast
    /// destination.
    pub fn broadcast_extra_cost(&self, extra_destinations: usize) -> VirtualTime {
        VirtualTime::from_nanos(self.broadcast_extra_per_dest_ns).scale(extra_destinations as u64)
    }

    /// Approximate end-to-end cost of acquiring a free (uncontended) lock:
    /// request to the manager, manager processing, and the grant message.
    pub fn free_lock_acquire_cost(&self) -> VirtualTime {
        self.roundtrip_cost(0, true) + self.lock_manager_cost()
    }

    /// Approximate cost of an `n`-processor barrier as seen by the last
    /// arriving processor: arrival message, master processing for every
    /// processor, departure message and local bookkeeping.
    pub fn barrier_cost(&self, procs: usize) -> VirtualTime {
        let master = VirtualTime::from_nanos(self.barrier_master_per_proc_ns).scale(procs as u64);
        self.roundtrip_cost(0, true) + master + self.barrier_local_cost()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::sp2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp2_roundtrip_matches_paper() {
        let m = CostModel::sp2();
        let rt = m.roundtrip_cost(0, true).as_micros();
        assert!((350..400).contains(&rt), "round trip {rt}us should be ~365us");
    }

    #[test]
    fn sp2_lock_acquire_matches_paper() {
        let m = CostModel::sp2();
        let lock = m.free_lock_acquire_cost().as_micros();
        assert!((400..470).contains(&lock), "free lock acquire {lock}us should be ~427us");
    }

    #[test]
    fn sp2_barrier_matches_paper() {
        let m = CostModel::sp2();
        let barrier = m.barrier_cost(8).as_micros();
        assert!((820..980).contains(&barrier), "8-proc barrier {barrier}us should be ~893us");
    }

    #[test]
    fn tree_hop_service_is_cheaper_than_flat_master_serialization() {
        let m = CostModel::sp2();
        // A tree hop services a child for less than the flat master pays per
        // arrival — the no-interrupt discount.
        assert!(m.barrier_hop_per_child_ns < m.barrier_master_per_proc_ns);
        assert_eq!(m.barrier_hop_cost(3), m.barrier_hop_cost(1).scale(3));
        assert_eq!(CostModel::free().barrier_hop_cost(4), VirtualTime::ZERO);
    }

    #[test]
    fn polled_messages_are_cheaper_than_interrupt_messages() {
        let m = CostModel::sp2();
        assert!(m.message_cost(1024, false) < m.message_cost(1024, true));
    }

    #[test]
    fn mprotect_grows_with_pages_in_use() {
        let m = CostModel::sp2();
        let small = m.mprotect_cost(10);
        let large = m.mprotect_cost(2000);
        assert!(small < large);
        assert!(small.as_micros() >= 18);
        // Paper: between 18us and 800us with 2000 pages in use.
        assert!(large.as_micros() <= 800);
    }

    #[test]
    fn page_fault_grows_with_pages_in_use() {
        let m = CostModel::sp2();
        assert!(m.page_fault_cost(1) < m.page_fault_cost(4000));
    }

    #[test]
    fn free_model_costs_nothing() {
        let m = CostModel::free();
        assert_eq!(m.message_cost(1 << 20, true), VirtualTime::ZERO);
        assert_eq!(m.barrier_cost(8), VirtualTime::ZERO);
        assert_eq!(m.twin_cost(100), VirtualTime::ZERO);
    }

    #[test]
    fn struct_update_overrides_single_field() {
        let m = CostModel { twin_page_ns: 1, ..CostModel::sp2() };
        assert_eq!(m.twin_cost(3).as_nanos(), 3);
        // Other fields keep SP/2 defaults.
        assert_eq!(m.msg_fixed_interrupt_ns, CostModel::sp2().msg_fixed_interrupt_ns);
    }

    #[test]
    fn message_cost_scales_with_bytes() {
        let m = CostModel::sp2();
        let small = m.message_cost(64, true);
        let big = m.message_cost(64 * 1024, true);
        assert!(big > small);
        // A 64 KiB transfer should cost roughly 64Ki * 28.5ns ~ 1.87ms extra.
        assert!(big.as_micros() > 1_500);
    }
}
