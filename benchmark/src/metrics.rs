//! The benchmark's vocabulary: the six workloads, the three end-to-end
//! metrics with their regression bounds, and the 98 per-layer metrics.
//! `BENCHMARK.json` at the repository root is [`manifest`] written to a
//! file; a unit test keeps the two identical.
//!
//! Units name the clock: `sim_ms` / `sim_us` are *virtual* time (the SP/2
//! cost model — what the paper reports, deterministic); `s` / `ms` / `us` /
//! `ns` are *host* time (what a user of the simulator waits for).

use crate::json::Json;
use Source::{Counter, Host, Probe, Span};

/// How long one run measures, in seconds (`run_seconds` of the manifest and
/// the default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// A workload and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Why it was chosen: which layers it exercises and which it bypasses.
    pub why: &'static str,
}

/// The six workloads.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tmk8",
        why: "Base TreadMarks on 8 procs: host time is the per-element checked access path, \
              virtual time is fault, twin, diff and request service; the compiler path is bypassed",
    },
    Workload {
        name: "ctrt8",
        why:
            "Same three problems through the compiled plan (pushes, merged data+sync): access and \
              fault layers idle, so an access-path gain on tmk8 must predict no change here",
    },
    Workload {
        name: "wide64",
        why:
            "Validate_w_sync on 64 procs: tree barrier and SyncDiffs fan-in in virtual time; 67 OS \
              threads, reactor pool, doorbells and channels in host time",
    },
    Workload {
        name: "plan64",
        why:
            "Compiled plans on 64 procs: tiny virtual time, host time dominated by every processor \
              calling rsdcomp::compile; control for wide64 (protocol changes should not move it)",
    },
    Workload {
        name: "locks8",
        why:
            "Integer sort on 8 procs, plain and compiled: the lock path (acquire, grant+data) that \
              every barrier-only workload bypasses; the only scheduler-dependent virtual time",
    },
    Workload {
        name: "chaos8",
        why: "Validate on 8 procs under seeded packet faults with the race detector collecting: \
              retransmit, dedup and detector paths that are structurally absent everywhere else",
    },
];

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit; names the clock.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The three end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "virt_ms", unit: "sim_ms", better: "lower", bound: 0.03 },
    EndToEnd { name: "host_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// Where a per-layer metric is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Summed from `DsmRun::stats` over the first pass's cases; exact.
    Counter,
    /// Derived from the per-processor spans of the traced passes and the
    /// per-case clocks.
    Span,
    /// Host side of `Dsm::try_run`: `/proc`, wall clock, reactor snapshots.
    Host,
    /// A micro-program of the `probes` binary timing public calls.
    Probe,
}

/// A per-layer metric. The layer is the crate name before the first dot.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit; names the clock.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Where it is measured.
    pub source: Source,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> PerLayer {
    PerLayer { name, unit, better, source }
}

/// The 98 per-layer metrics, in reporting order.
pub const PER_LAYER: [PerLayer; 98] = [
    // Exact protocol counters, summed over the cases of one pass.
    layer("treadmarks.page_faults", "count", "lower", Counter),
    layer("treadmarks.protection_ops", "count", "lower", Counter),
    layer("treadmarks.twins_created", "count", "lower", Counter),
    layer("treadmarks.diffs_created", "count", "lower", Counter),
    layer("treadmarks.diffs_applied", "count", "lower", Counter),
    layer("treadmarks.full_page_fetches", "count", "lower", Counter),
    layer("treadmarks.write_notices", "count", "lower", Counter),
    layer("treadmarks.barriers", "count", "lower", Counter),
    layer("treadmarks.lock_acquires", "count", "lower", Counter),
    layer("treadmarks.tlb_hits", "count", "higher", Counter),
    layer("treadmarks.tlb_misses", "count", "lower", Counter),
    layer("treadmarks.tlb_hit_ratio", "ratio", "higher", Counter),
    layer("treadmarks.table_lock_acquires", "count", "lower", Counter),
    layer("treadmarks.sync_wait_virt_ms", "sim_ms", "lower", Counter),
    layer("treadmarks.gc_trimmed_diffs", "count", "higher", Counter),
    layer("msgnet.messages", "count", "lower", Counter),
    layer("msgnet.kbytes", "KB", "lower", Counter),
    layer("msgnet.broadcasts", "count", "lower", Counter),
    layer("msgnet.retransmits", "count", "lower", Counter),
    layer("msgnet.dups", "count", "lower", Counter),
    layer("msgnet.reorders", "count", "lower", Counter),
    layer("msgnet.delays", "count", "lower", Counter),
    layer("msgnet.added_delay_virt_ms", "sim_ms", "lower", Counter),
    layer("ctrt.validates", "count", "higher", Counter),
    layer("ctrt.validate_w_syncs", "count", "higher", Counter),
    layer("ctrt.pushes", "count", "higher", Counter),
    layer("ctrt.neighbor_syncs", "count", "higher", Counter),
    layer("ctrt.split_phase_issues", "count", "higher", Counter),
    layer("ctrt.merged_sync_msgs", "count", "higher", Counter),
    layer("rsdcomp.barriers_eliminated", "count", "higher", Counter),
    layer("racecheck.races_detected", "count", "lower", Counter),
    layer("racecheck.window_trimmed", "count", "lower", Counter),
    // From the per-processor spans and per-case clocks.
    layer("treadmarks.crit_wait_virt_ms", "sim_ms", "lower", Span),
    layer("treadmarks.crit_overhead_virt_ms", "sim_ms", "lower", Span),
    layer("treadmarks.crit_compute_virt_ms", "sim_ms", "lower", Span),
    layer("treadmarks.imbalance_x", "x", "lower", Span),
    layer("treadmarks.virt_spread_pct", "%", "lower", Span),
    layer("apps.jacobi.virt_ms", "sim_ms", "lower", Span),
    layer("apps.jacobi.host_ms", "ms", "lower", Span),
    layer("apps.sor.virt_ms", "sim_ms", "lower", Span),
    layer("apps.sor.host_ms", "ms", "lower", Span),
    layer("apps.gauss.virt_ms", "sim_ms", "lower", Span),
    layer("apps.gauss.host_ms", "ms", "lower", Span),
    layer("apps.is-treadmarks.virt_ms", "sim_ms", "lower", Span),
    layer("apps.is-treadmarks.host_ms", "ms", "lower", Span),
    layer("apps.is-compiled.virt_ms", "sim_ms", "lower", Span),
    layer("apps.is-compiled.host_ms", "ms", "lower", Span),
    layer("apps.ref_ratio_x", "x", "higher", Span),
    // Host side of Dsm::try_run.
    layer("treadmarks.run_cpu_ms", "ms", "lower", Host),
    layer("treadmarks.run_tail_ms", "ms", "lower", Host),
    layer("treadmarks.peak_rss_mb", "MB", "lower", Host),
    layer("treadmarks.host_ns_per_access", "ns", "lower", Host),
    layer("treadmarks.host_us_per_msg", "us", "lower", Host),
    layer("treadmarks.reactor_polls", "count", "lower", Host),
    layer("treadmarks.reactor_wakeups", "count", "lower", Host),
    layer("treadmarks.reactor_served", "count", "lower", Host),
    layer("treadmarks.reactor_max_depth", "count", "lower", Host),
    layer("bench.trace_overhead_pct", "%", "lower", Host),
    // Probes: benchmark-owned micro-programs timing public calls.
    layer("core.chan_send_recv_ns", "ns", "lower", Probe),
    layer("core.chan_pingpong_ns", "ns", "lower", Probe),
    layer("pagedmem.diff_create_sparse_ns", "ns", "lower", Probe),
    layer("pagedmem.diff_create_dense_ns", "ns", "lower", Probe),
    layer("pagedmem.diff_apply_ns", "ns", "lower", Probe),
    layer("pagedmem.frame_lookup_ns", "ns", "lower", Probe),
    layer("pagedmem.read_checked_ns_per_page", "ns", "lower", Probe),
    layer("pagedmem.write_checked_ns_per_page", "ns", "lower", Probe),
    layer("msgnet.send_recv_ns", "ns", "lower", Probe),
    layer("msgnet.send_recv_reliable_ns", "ns", "lower", Probe),
    layer("msgnet.roundtrip_virt_us", "sim_us", "lower", Probe),
    layer("treadmarks.get_warm_ns", "ns", "lower", Probe),
    layer("treadmarks.set_warm_ns", "ns", "lower", Probe),
    layer("treadmarks.get_slice_ns_per_page", "ns", "lower", Probe),
    layer("treadmarks.set_slice_ns_per_page", "ns", "lower", Probe),
    layer("treadmarks.read_fault_virt_us", "sim_us", "lower", Probe),
    layer("treadmarks.read_fault_host_us", "us", "lower", Probe),
    layer("treadmarks.write_fault_virt_us", "sim_us", "lower", Probe),
    layer("treadmarks.write_fault_host_us", "us", "lower", Probe),
    layer("treadmarks.barrier8_virt_us", "sim_us", "lower", Probe),
    layer("treadmarks.barrier8_host_us", "us", "lower", Probe),
    layer("treadmarks.barrier64_virt_us", "sim_us", "lower", Probe),
    layer("treadmarks.barrier64_host_us", "us", "lower", Probe),
    layer("treadmarks.lock_free_virt_us", "sim_us", "lower", Probe),
    layer("treadmarks.lock_free_host_us", "us", "lower", Probe),
    layer("treadmarks.lock_chain8_virt_us", "sim_us", "lower", Probe),
    layer("treadmarks.spawn8_host_us", "us", "lower", Probe),
    layer("treadmarks.spawn64_host_us", "us", "lower", Probe),
    layer("ctrt.validate_virt_us", "sim_us", "lower", Probe),
    layer("ctrt.validate_host_us", "us", "lower", Probe),
    layer("ctrt.validate_w_sync_virt_us", "sim_us", "lower", Probe),
    layer("ctrt.validate_w_sync_host_us", "us", "lower", Probe),
    layer("ctrt.push_phase_virt_us", "sim_us", "lower", Probe),
    layer("ctrt.push_phase_host_us", "us", "lower", Probe),
    layer("ctrt.neighbor_sync_virt_us", "sim_us", "lower", Probe),
    layer("ctrt.neighbor_sync_host_us", "us", "lower", Probe),
    layer("rsdcomp.compile_np8_us", "us", "lower", Probe),
    layer("rsdcomp.compile_np64_us", "us", "lower", Probe),
    layer("racecheck.overlap_ns", "ns", "lower", Probe),
    layer("sp2model.calib_err_pct", "%", "lower", Probe),
];

/// `{"value": v, "unit": u}` — the shape of a metric in every output.
pub fn reading(value: f64, unit: &str) -> Json {
    Json::obj().set("value", value).set("unit", unit)
}

/// The text of `BENCHMARK.json`: one entry per line so a change to one
/// metric is a one-line diff.
pub fn manifest() -> String {
    let lines = |items: Vec<Json>| {
        items.iter().map(|item| format!("    {item}")).collect::<Vec<_>>().join(",\n")
    };
    let command = Json::Arr(vec!["bash".into(), "benchmark/run.sh".into()]);
    let workloads =
        WORKLOADS.iter().map(|w| Json::obj().set("name", w.name).set("why", w.why)).collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better)
                .set("bound", m.bound)
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| Json::obj().set("name", m.name).set("unit", m.unit).set("better", m.better))
        .collect();
    format!(
        "{{\n  \"command\": {command},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": \
         {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn well_formed_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(well_formed_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in END_TO_END {
            assert!(well_formed_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(well_formed_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in PER_LAYER {
            assert!(well_formed_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(well_formed_unit(m.unit), "{}", m.unit);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(m.name.contains('.'), "{} must start with its layer", m.name);
        }
        // setup_s is required by name, in seconds, lower-is-better, and
        // carries the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn the_checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, manifest(), "regenerate with `workloads --manifest > BENCHMARK.json`");
        let doc = Json::parse(&on_disk).expect("the manifest is valid JSON");
        let keys: Vec<_> = doc.fields().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
