//! The live thread count of a 64-processor run.
//!
//! A binary of its own because it reads the process's thread count: in the
//! library's test binary the parallel `scale_` tests' 128-processor runs
//! leave their pooled workers parked in the same process and inflate it.

use dsm_apps::Variant;
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig};

#[test]
fn a_64_processor_case_runs_on_a_bounded_thread_budget() {
    // A default-config wide run serves its protocol side on the threads
    // that send the requests — the live thread count stays under the
    // seed design's 2·nprocs, by a margin of nearly nprocs (headroom for
    // concurrent tests; see the companion 128-processor test in
    // `treadmarks`).
    let nprocs = 64;
    let threads_now = || -> usize {
        std::fs::read_to_string("/proc/self/status")
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    let peak = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let peak_in_run = std::sync::Arc::clone(&peak);
    let cfg = dsm_apps::GridConfig { rows: 64, cols: 256, iters: 2 };
    let run = Dsm::run(DsmConfig::new(nprocs).with_cost_model(CostModel::sp2()), move |p| {
        // Sample only after a barrier: every compute thread is
        // provably alive, so the count is the run's plateau, not a
        // spawn-ramp artefact.
        p.barrier();
        if p.proc_id() == 0 {
            peak_in_run.store(threads_now(), std::sync::atomic::Ordering::SeqCst);
        }
        dsm_apps::jacobi(p, &cfg, Variant::Validate)
    });
    assert_eq!(run.reactors.len(), nprocs, "one serving snapshot per node");
    let served: u64 = run.reactors.iter().map(|r| r.served).sum();
    assert!(served > 0, "the senders served the run's protocol traffic");
    let peak = peak.load(std::sync::atomic::Ordering::SeqCst);
    assert!(peak >= nprocs, "the compute threads were live when sampled: {peak}");
    assert!(
        peak < 2 * nprocs,
        "{peak} live threads: the protocol side must not cost a thread per node"
    );
}
