//! Chaos acceptance: under seeded drop/duplicate/delay/reorder fault
//! schedules, resolved at send time into added latency and header bytes,
//! the interconnect's unreliability must stay invisible to the
//! applications — every kernel variant's per-processor checksums stay
//! bit-identical to the fault-free run, and the race detector observes
//! nothing, at every cluster size.

use dsm_apps::{gauss, is, jacobi, sor, GridConfig, Variant};
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig, DsmRun, NetFaults, Process, RaceDetect};

/// Three distinct seeded schedules (drops, duplicates, delays and reorders
/// all enabled — see [`NetFaults::chaos`]).
const SEEDS: [u64; 3] = [101, 202, 303];

type App = fn(&mut Process, &GridConfig, Variant) -> f64;

fn run_app(
    app: App,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
    faults: Option<NetFaults>,
) -> DsmRun<f64> {
    let config = DsmConfig::new(nprocs)
        .with_cost_model(CostModel::sp2())
        .with_race_detect(RaceDetect::Collect)
        .with_net_faults(faults);
    Dsm::run(config, move |p| app(p, &cfg, variant))
}

fn bits(run: &DsmRun<f64>) -> Vec<u64> {
    run.results.iter().map(|s| s.to_bits()).collect()
}

fn assert_chaos_transparent(app: App, name: &str, cfg: GridConfig, nprocs: usize) {
    // Summed over the whole matrix so the assertion below can prove the
    // schedules were not vacuously clean.
    let mut injected = 0u64;
    for variant in Variant::ALL {
        let clean = run_app(app, cfg, nprocs, variant, None);
        assert!(
            clean.races.is_empty(),
            "{name}/{} at {nprocs} procs races fault-free",
            variant.name()
        );
        for seed in SEEDS {
            let chaotic = run_app(app, cfg, nprocs, variant, Some(NetFaults::chaos(seed)));
            assert_eq!(
                bits(&clean),
                bits(&chaotic),
                "{name}/{} at {nprocs} procs, seed {seed}: checksums must be \
                 bit-identical to the fault-free run",
                variant.name()
            );
            assert!(
                chaotic.races.is_empty(),
                "{name}/{} at {nprocs} procs, seed {seed}: faults must not \
                 surface as data races",
                variant.name()
            );
            let t = chaotic.stats.total();
            injected += t.net_retransmits + t.net_dups + t.net_reorders + t.net_delays;
        }
    }
    assert!(injected > 0, "the schedules must actually inject faults for {name} at {nprocs} procs");
}

type AppU64 = fn(&mut Process, &GridConfig, Variant) -> u64;

fn run_app_u64(
    app: AppU64,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
    faults: Option<NetFaults>,
) -> DsmRun<u64> {
    let config = DsmConfig::new(nprocs)
        .with_cost_model(CostModel::sp2())
        .with_race_detect(RaceDetect::Collect)
        .with_net_faults(faults);
    Dsm::run(config, move |p| app(p, &cfg, variant))
}

/// The integer-kernel mirror of [`assert_chaos_transparent`], with one
/// extra non-vacuity requirement: when `uses_locks` is set the chaotic
/// runs must actually carry lock traffic, so the fault schedules are
/// proven to have shaken the grant chain and its piggybacked diffs — the
/// protocol path the barrier-only kernels never enter.
fn assert_chaos_transparent_u64(
    app: AppU64,
    name: &str,
    cfg: GridConfig,
    nprocs: usize,
    uses_locks: bool,
) {
    let mut injected = 0u64;
    for variant in Variant::ALL {
        let clean = run_app_u64(app, cfg, nprocs, variant, None);
        assert!(
            clean.races.is_empty(),
            "{name}/{} at {nprocs} procs races fault-free",
            variant.name()
        );
        for seed in SEEDS {
            let chaotic = run_app_u64(app, cfg, nprocs, variant, Some(NetFaults::chaos(seed)));
            assert_eq!(
                clean.results,
                chaotic.results,
                "{name}/{} at {nprocs} procs, seed {seed}: checksums must be \
                 bit-identical to the fault-free run",
                variant.name()
            );
            assert!(
                chaotic.races.is_empty(),
                "{name}/{} at {nprocs} procs, seed {seed}: faults must not \
                 surface as data races",
                variant.name()
            );
            let t = chaotic.stats.total();
            if uses_locks && variant == Variant::Compiled {
                assert_eq!(
                    (t.lock_acquires, t.barriers > 0),
                    (0, true),
                    "{name}/compiled at {nprocs} procs, seed {seed}: the histogram \
                     must travel as a reduction, with no lock"
                );
            } else if uses_locks {
                assert!(
                    t.lock_acquires > 0,
                    "{name}/{} at {nprocs} procs, seed {seed}: the chaotic run \
                     must exercise the lock-grant path",
                    variant.name()
                );
            }
            injected += t.net_retransmits + t.net_dups + t.net_reorders + t.net_delays;
        }
    }
    assert!(injected > 0, "the schedules must actually inject faults for {name} at {nprocs} procs");
}

#[test]
fn jacobi_is_chaos_transparent_at_2_procs() {
    assert_chaos_transparent(jacobi, "jacobi", GridConfig { rows: 32, cols: 8, iters: 2 }, 2);
}

#[test]
fn jacobi_is_chaos_transparent_at_4_procs() {
    assert_chaos_transparent(jacobi, "jacobi", GridConfig { rows: 32, cols: 12, iters: 2 }, 4);
}

#[test]
fn jacobi_is_chaos_transparent_at_8_procs() {
    assert_chaos_transparent(jacobi, "jacobi", GridConfig { rows: 32, cols: 16, iters: 2 }, 8);
}

#[test]
fn sor_is_chaos_transparent_at_2_procs() {
    assert_chaos_transparent(sor, "sor", GridConfig { rows: 32, cols: 8, iters: 2 }, 2);
}

#[test]
fn sor_is_chaos_transparent_at_4_procs() {
    assert_chaos_transparent(sor, "sor", GridConfig { rows: 32, cols: 12, iters: 2 }, 4);
}

#[test]
fn sor_is_chaos_transparent_at_8_procs() {
    assert_chaos_transparent(sor, "sor", GridConfig { rows: 32, cols: 16, iters: 2 }, 8);
}

#[test]
fn integer_sort_is_chaos_transparent_at_2_procs() {
    assert_chaos_transparent_u64(is, "is", GridConfig { rows: 16, cols: 8, iters: 2 }, 2, true);
}

#[test]
fn integer_sort_is_chaos_transparent_at_4_procs() {
    assert_chaos_transparent_u64(is, "is", GridConfig { rows: 16, cols: 12, iters: 2 }, 4, true);
}

#[test]
fn integer_sort_is_chaos_transparent_at_8_procs() {
    assert_chaos_transparent_u64(is, "is", GridConfig { rows: 16, cols: 18, iters: 2 }, 8, true);
}

#[test]
fn gauss_is_chaos_transparent_at_2_procs() {
    assert_chaos_transparent_u64(
        gauss,
        "gauss",
        GridConfig { rows: 16, cols: 8, iters: 2 },
        2,
        false,
    );
}

#[test]
fn gauss_is_chaos_transparent_at_4_procs() {
    assert_chaos_transparent_u64(
        gauss,
        "gauss",
        GridConfig { rows: 16, cols: 12, iters: 2 },
        4,
        false,
    );
}

#[test]
fn gauss_is_chaos_transparent_at_8_procs() {
    assert_chaos_transparent_u64(
        gauss,
        "gauss",
        GridConfig { rows: 16, cols: 18, iters: 2 },
        8,
        false,
    );
}

#[test]
fn jacobi_is_chaos_transparent_at_64_procs() {
    // At 64 simulated processors many requesters drain the same ports
    // concurrently, so this schedule shakes the *polled* request path —
    // retransmission timeouts and delays must hold when whichever thread
    // got to a port first consumes what it holds.
    // One seed and the two ends of the variant spectrum keep the wide runs
    // affordable; the full seed matrix runs at the smaller sizes above.
    let cfg = GridConfig { rows: 16, cols: 130, iters: 2 };
    let mut injected = 0u64;
    for variant in [Variant::TreadMarks, Variant::Compiled] {
        let clean = run_app(jacobi, cfg, 64, variant, None);
        assert!(clean.races.is_empty(), "jacobi/{} at 64 procs races fault-free", variant.name());
        let chaotic = run_app(jacobi, cfg, 64, variant, Some(NetFaults::chaos(SEEDS[0])));
        assert_eq!(
            bits(&clean),
            bits(&chaotic),
            "jacobi/{} at 64 procs: checksums must be bit-identical to the \
             fault-free run",
            variant.name()
        );
        assert!(
            chaotic.races.is_empty(),
            "jacobi/{} at 64 procs: faults must not surface as data races",
            variant.name()
        );
        let t = chaotic.stats.total();
        injected += t.net_retransmits + t.net_dups + t.net_reorders + t.net_delays;
    }
    assert!(injected > 0, "the schedule must actually inject faults at 64 procs");
}

#[test]
fn chaos_runs_are_reproducible_per_seed() {
    // Same seed, same program: not only the checksums but the modelled
    // times and deterministic fault counters must be identical run-to-run
    // (the schedule is a pure function, not a random process).
    let cfg = GridConfig { rows: 32, cols: 8, iters: 2 };
    let faults = || Some(NetFaults::chaos(SEEDS[0]));
    let a = run_app(jacobi, cfg, 4, Variant::TreadMarks, faults());
    let b = run_app(jacobi, cfg, 4, Variant::TreadMarks, faults());
    assert_eq!(bits(&a), bits(&b));
    assert_eq!(a.elapsed, b.elapsed, "modelled times must not depend on thread scheduling");
    let (ta, tb) = (a.stats.total(), b.stats.total());
    assert_eq!(ta.net_retransmits, tb.net_retransmits);
    assert_eq!(ta.net_dups, tb.net_dups);
    assert_eq!(ta.net_reorders, tb.net_reorders);
    assert_eq!(ta.net_delays, tb.net_delays);
    assert_eq!(ta.net_added_delay_ns, tb.net_added_delay_ns);
    // The fault model itself is pinned: one seed's per-processor times,
    // wire totals and fault counters.
    let elapsed: Vec<u64> = a.elapsed.iter().map(|t| t.as_nanos()).collect();
    assert_eq!(elapsed, [3_639_013, 3_697_753, 3_713_215, 4_730_775]);
    assert_eq!((ta.messages_sent, ta.bytes_sent), (84, 21_792));
    assert_eq!((ta.net_retransmits, ta.net_dups, ta.net_reorders, ta.net_delays), (4, 6, 9, 6));
    assert_eq!(ta.net_added_delay_ns, 4_700_000);
}

#[test]
fn compiled_integer_sort_is_chaos_transparent_at_64_procs() {
    // The reduced histogram merge at 64 processors: every iteration's
    // partials climb the barrier tree and the totals come back down it, so
    // the fault schedule shakes the reduction's arrivals and departures at
    // full width. The checksums stay bit-identical, the detector reports
    // nothing, and no lock is taken.
    let cfg = GridConfig { rows: 8, cols: 130, iters: 2 };
    let clean = run_app_u64(is, cfg, 64, Variant::Compiled, None);
    assert!(clean.races.is_empty(), "is/compiled at 64 procs races fault-free");
    let chaotic = run_app_u64(is, cfg, 64, Variant::Compiled, Some(NetFaults::chaos(SEEDS[0])));
    assert_eq!(
        clean.results, chaotic.results,
        "is/compiled at 64 procs: checksums must be bit-identical to the fault-free run"
    );
    assert!(chaotic.races.is_empty(), "is/compiled at 64 procs: faults must not surface as races");
    let t = chaotic.stats.total();
    assert_eq!(t.lock_acquires, 0, "is/compiled at 64 procs: the merge is a reduction");
    assert!(
        t.net_retransmits + t.net_dups + t.net_reorders + t.net_delays > 0,
        "the schedule must actually inject faults at 64 procs"
    );
}
