//! Tree-structured barrier tests: the master's message count stays
//! constant in the cluster size, every topology computes the same result,
//! and virtual time stays deterministic on the tree path.

use pagedmem::{AddrRange, PageId, PAGE_SIZE};
use sp2model::{CostModel, StatsSnapshot, VirtualTime};
use treadmarks::{BarrierTopology, Dsm, DsmConfig, PhasePlan, Process, SyncOp};

const ELEMS: usize = PAGE_SIZE / 8;

fn config(n: usize, topology: BarrierTopology) -> DsmConfig {
    DsmConfig::new(n).with_cost_model(CostModel::free()).with_barrier(topology)
}

#[test]
fn tree_master_exchanges_a_constant_number_of_messages_per_barrier() {
    const BARRIERS: usize = 10;
    // Each processor's messages as its last barrier returns: a node sends
    // nothing after it (the sum is the run's total).
    let run_with = |topology| {
        let run = Dsm::run(config(8, topology), |p| {
            for _ in 0..BARRIERS {
                p.barrier();
            }
            p.stats().snapshot().messages_sent as usize
        });
        assert_eq!(run.results.iter().sum::<usize>() as u64, run.stats.total().messages_sent);
        run
    };
    let tree = run_with(BarrierTopology::Tree { arity: 2 });
    // Binary tree over 8 processors: the master talks only to its two
    // children — two departures sent (and two arrivals received) per
    // barrier, independent of the cluster size.
    assert_eq!(tree.results[0], 2 * BARRIERS);
    // An interior node sends one merged arrival up and fans two departures
    // down; a leaf sends exactly its arrival.
    assert_eq!(tree.results[1], 3 * BARRIERS);
    assert_eq!(tree.results[7], BARRIERS);

    let flat = run_with(BarrierTopology::FlatMaster);
    assert_eq!(flat.results[0], 7 * BARRIERS, "the flat master still funnels every departure");
    assert!(tree.results[0] < flat.results[0]);
    // The tree moves the same total traffic — it just never funnels it
    // through one node.
    assert_eq!(tree.stats.total().messages_sent, flat.stats.total().messages_sent);
}

#[test]
fn the_paper_barrier_is_the_flat_master_tree_at_its_own_constants() {
    // Back-to-back plain barriers on 8 processors under the SP/2 model: in
    // steady state processor 0 goes round once per barrier. The flat
    // master's round is the paper's closed form — the round trip, `n`
    // master services and the local bookkeeping — plus the wire time of one
    // arrival's and one departure's bytes.
    const BARRIERS: usize = 12;
    let cost = CostModel::sp2();
    let rounds = |topology| {
        let config = DsmConfig::new(8).with_cost_model(cost.clone()).with_barrier(topology);
        let run = Dsm::run(config, |p| {
            p.barrier();
            let mut clock = Vec::with_capacity(BARRIERS + 1);
            clock.push(p.clock().now());
            for _ in 0..BARRIERS {
                p.barrier();
                clock.push(p.clock().now());
            }
            clock.windows(2).map(|w| (w[1] - w[0]).as_nanos()).collect::<Vec<_>>()
        });
        (run.results[0].clone(), run.stats.total())
    };
    let (flat, flat_stats) = rounds(BarrierTopology::FlatMaster);
    assert_eq!(flat, [885_342; BARRIERS], "the flat master's barrier");
    let (tree, tree_stats) = rounds(BarrierTopology::Adaptive);
    assert_eq!(tree, [420_342; BARRIERS], "the default tree's barrier");
    // At 8 processors the adaptive arity is `n − 1`: the same tree, priced
    // at the tree's constants instead of the master's.
    assert_eq!(BarrierTopology::Adaptive.shape(8, &cost).0, 7);
    assert_eq!(
        (tree_stats.messages_sent, tree_stats.bytes_sent),
        (flat_stats.messages_sent, flat_stats.bytes_sent)
    );
}

/// A three-epoch neighbour exchange with the fetch piggybacked on the
/// barrier, so arrivals carry sync requests that must merge up the tree
/// and fan back down intact.
fn exchange_kernel(p: &mut Process) -> u64 {
    let n = p.nprocs();
    let me = p.proc_id();
    let a = p.alloc_array::<u64>(n * ELEMS);
    let mut acc = 0u64;
    for epoch in 0..3u64 {
        for i in (0..ELEMS).step_by(7) {
            p.set(&a, me * ELEMS + i, epoch * 1000 + (me * 31 + i) as u64);
        }
        let right = (me + 1) % n;
        let neighbour = a.range_of(right * ELEMS, (right + 1) * ELEMS);
        p.fetch_diffs_w_sync(SyncOp::Barrier, &neighbour.pages().collect::<Vec<_>>());
        for i in (0..ELEMS).step_by(13) {
            acc = acc.wrapping_add(p.get(&a, right * ELEMS + i));
        }
        p.barrier();
    }
    acc
}

#[test]
fn every_topology_computes_the_same_exchange() {
    let reference = Dsm::run(config(8, BarrierTopology::FlatMaster), exchange_kernel);
    for arity in [1, 2, 3, 7, 16] {
        let tree = Dsm::run(config(8, BarrierTopology::Tree { arity }), exchange_kernel);
        assert_eq!(
            tree.results, reference.results,
            "arity-{arity} tree must compute what the flat barrier computes"
        );
    }
}

#[test]
fn adaptive_arity_is_never_slower_than_arity_two_on_the_virtual_clock() {
    // The satellite acceptance criterion: the arity derived from `nprocs`
    // and the cost model's hop/service ratio must beat (or tie) the fixed
    // binary tree on an actual barrier-heavy run, measured by the virtual
    // clock, at every size of the standard matrix. `exchange_kernel` needs
    // at least two processors (the ring read), so nprocs starts at 2.
    for nprocs in [2usize, 4, 8, 16] {
        let run_with = |topology: BarrierTopology| {
            Dsm::run(
                DsmConfig::new(nprocs).with_cost_model(CostModel::sp2()).with_barrier(topology),
                exchange_kernel,
            )
        };
        let (chosen, ..) = BarrierTopology::Adaptive.shape(nprocs, &CostModel::sp2());
        let adaptive = run_with(BarrierTopology::Adaptive);
        let binary = run_with(BarrierTopology::Tree { arity: 2 });
        assert_eq!(adaptive.results, binary.results, "topology must not change results");
        assert!(
            adaptive.execution_time() <= binary.execution_time(),
            "adaptive arity {chosen} must not be slower than 2 at {nprocs} procs: {} vs {} ns",
            adaptive.execution_time().as_nanos(),
            binary.execution_time().as_nanos()
        );
    }
}

#[test]
fn tree_barrier_virtual_time_is_deterministic() {
    let run = |_: usize| {
        Dsm::run(
            DsmConfig::new(8)
                .with_cost_model(CostModel::sp2())
                .with_barrier(BarrierTopology::Tree { arity: 2 }),
            exchange_kernel,
        )
    };
    let a = run(0);
    let b = run(1);
    assert_eq!(a.results, b.results);
    assert_eq!(
        a.elapsed, b.elapsed,
        "two identical tree-barrier runs must report identical virtual clocks"
    );
}

/// The distinct pages `ranges` touch, ascending: a fetch's page list.
fn pages(ranges: &[AddrRange]) -> Vec<PageId> {
    let mut pages: Vec<PageId> = ranges.iter().flat_map(AddrRange::pages).collect();
    pages.sort_unstable();
    pages.dedup();
    pages
}

/// Like [`exchange_kernel`], but *every* barrier carries a piggybacked
/// request from every processor, and each processor fetches from both ring
/// neighbours — so on a deep tree the full request set is merged over
/// several levels on the way up and handed on by every interior node on
/// the way down.
fn piggyback_kernel(p: &mut Process) -> u64 {
    let n = p.nprocs();
    let me = p.proc_id();
    let a = p.alloc_array::<u64>(n * ELEMS);
    let chunk = |q: usize| a.range_of(q * ELEMS, (q + 1) * ELEMS);
    let (left, right) = ((me + n - 1) % n, (me + 1) % n);
    let mut acc = 0u64;
    for epoch in 0..4u64 {
        for i in (0..ELEMS).step_by(5) {
            p.set(&a, me * ELEMS + i, epoch * 1000 + (me * 31 + i) as u64);
        }
        p.fetch_diffs_w_sync(SyncOp::Barrier, &pages(&[chunk(left), chunk(right)]));
        for i in (0..ELEMS).step_by(11) {
            acc = acc.wrapping_add(p.get(&a, left * ELEMS + i) ^ p.get(&a, right * ELEMS + i));
        }
    }
    acc
}

#[test]
fn a_four_level_tree_forwards_every_piggybacked_request() {
    // 16 processors at arity 2: root, two interior levels, leaves.
    let tree = || {
        DsmConfig::new(16)
            .with_cost_model(CostModel::sp2())
            .with_barrier(BarrierTopology::Tree { arity: 2 })
    };
    let flat = DsmConfig::new(16).with_cost_model(CostModel::sp2()).with_flat_barrier();
    let first = Dsm::run(tree(), piggyback_kernel);
    assert_eq!(
        first.results,
        Dsm::run(flat, piggyback_kernel).results,
        "the forwarded request set must serve what the flat master's does"
    );
    assert!(first.results.iter().any(|&acc| acc != 0));
    let total = first.stats.total();
    // One write fault per processor and epoch (the flush write-protects the
    // chunk); a read fault would mean a request was lost on the way.
    assert_eq!(total.page_faults, 16 * 4, "every read is served by the piggybacked fetch");
    assert!(total.diffs_applied > 0);
    let again = Dsm::run(tree(), piggyback_kernel);
    assert_eq!(again.results, first.results);
    assert_eq!(again.elapsed, first.elapsed, "virtual time must repeat exactly");
    assert_eq!(again.stats, first.stats, "every counter must repeat exactly");
}

/// A run with no peers that still walks every local step of a barrier:
/// plain barriers, a barrier-merged fetch whose plan has twinned,
/// `WRITE_ALL` and `READ&WRITE_ALL` written sections, and
/// the flush of the `WRITE_ALL` pages (full-page cache entries, then the
/// GC trim of the following barrier).
fn solo_kernel(p: &mut Process) -> u64 {
    let a = p.alloc_array::<u64>(4 * ELEMS);
    let chunk = |q: usize| a.range_of(q * ELEMS, (q + 1) * ELEMS);
    for i in (0..ELEMS).step_by(3) {
        p.set(&a, i, i as u64);
    }
    p.barrier();
    p.barrier();
    let plan = PhasePlan {
        fetch: chunk(0).pages().collect(),
        write_twinned: vec![chunk(1)],
        write_all: vec![chunk(2)],
        read_write_all: vec![chunk(3)],
    };
    // Nobody answers: the pinned `sync_wait_ns` stays 0.
    p.sync_phase(SyncOp::Barrier, &plan, |_| {});
    for i in (ELEMS..2 * ELEMS).step_by(5) {
        p.set(&a, i, 7);
    }
    let ones = vec![1u64; 2 * ELEMS];
    p.set_slice(&a, 2 * ELEMS..4 * ELEMS, &ones);
    p.barrier();
    p.barrier();
    (0..4 * ELEMS).map(|i| p.get(&a, i)).sum()
}

#[test]
fn a_single_processor_barrier_is_the_degenerate_tree() {
    // Recorded at the commit that still special-cased `nprocs == 1` inside
    // `barrier_issue`, then pinned: the general exchange with no children
    // reproduces that branch exactly, under the default tree and under the
    // flat master alike. The elapsed time was 509 710 ns while an install
    // that applied nothing still charged the diff-apply base (8 µs): the
    // merged fetch's completion and the one fault's fetch, neither of which
    // has anybody to receive a diff from, were the two such installs. It
    // was 493 710 ns, with two diffs created, while the flush charged the
    // encoding (55 µs) of its two deltas, which nobody reads. The table
    // lock was taken 15 times while a software TLB served 2 324 of the
    // accesses without it; now every access takes it once.
    let tree = DsmConfig::new(1).with_cost_model(CostModel::sp2());
    let flat = DsmConfig::new(1).with_cost_model(CostModel::sp2()).with_flat_barrier();
    let expected = StatsSnapshot {
        page_faults: 1,
        protection_ops: 6,
        twins_created: 2,
        barriers: 5,
        gc_trimmed_diffs: 4,
        gc_trimmed_notices: 2,
        table_lock_acquires: 2_338,
        ..StatsSnapshot::default()
    };
    for (name, config) in [("tree", tree), ("flat", flat)] {
        let run = Dsm::run(config, solo_kernel);
        assert_eq!(run.results, [45350], "{name}");
        assert_eq!(run.elapsed, [VirtualTime::from_nanos(383_710)], "{name}");
        assert_eq!(run.stats.total(), expected, "{name}");
    }
}

/// The `wide64` sharing pattern on a merged barrier: 64 processors, a
/// 64 × 256 column-major grid (a column is 512 bytes, so eight columns —
/// two processors' blocks — share a page). Every epoch each processor
/// writes its four columns and crosses a barrier that carries its request
/// for the two adjoining columns, so from the second epoch on every tree
/// node has copies to invalidate while its subtree waits for it. Returns
/// the checksum of what was read and the clock at which the last merged
/// barrier's issue returned.
fn wide_kernel(p: &mut Process) -> (u64, VirtualTime) {
    const ROWS: usize = 64;
    const COLS: usize = 256;
    let n = p.nprocs();
    let me = p.proc_id();
    let grid = p.alloc_matrix::<u64>(ROWS, COLS);
    let a = *grid.array();
    let per = COLS / n;
    let mine = me * per..(me + 1) * per;
    let left = mine.start.checked_sub(1);
    let right = (mine.end < COLS).then_some(mine.end);
    let wanted: Vec<_> =
        left.into_iter().chain(right).map(|col| a.range_of(col * ROWS, (col + 1) * ROWS)).collect();
    let mut acc = 0u64;
    let mut issued = VirtualTime::ZERO;
    for epoch in 1..=3u64 {
        for col in mine.clone() {
            for row in (0..ROWS).step_by(3) {
                p.set(&a, grid.index(row, col), epoch * 10_000 + (col * ROWS + row) as u64);
            }
        }
        let plan = PhasePlan { fetch: pages(&wanted), ..PhasePlan::default() };
        p.sync_phase(SyncOp::Barrier, &plan, |p| issued = p.clock().now());
        for col in left.into_iter().chain(right) {
            for row in (0..ROWS).step_by(3) {
                acc = acc.wrapping_add(p.get(&a, grid.index(row, col)));
            }
        }
        // Nobody overwrites a column before its readers have read it.
        p.barrier();
    }
    (acc, issued)
}

/// [`wide_kernel`] at the commit before tree nodes forwarded and served
/// ahead of their own invalidations (and before requests travelled sparse):
/// the earliest any processor finished — the root — and when the last
/// merged barrier's issue returned on the last leaf, P63.
const EARLIEST_ELAPSED_BEFORE: u64 = 8_021_997;
const LAST_LEAF_ISSUED_BEFORE: u64 = 7_011_794;

/// What a 64-processor run's processors finished at (ns) on the commit
/// before tree nodes served each arrival as it came and sent each departure
/// copy as it was built, by their place in the arity-8 tree: the root, its
/// interior children P1–P6 (eight children each), P7 (seven), its leaf
/// child P8, P7's leaves P57–P63 and every other leaf.
const WIDE_BEFORE: [u64; 6] = [7_642_142, 7_876_734, 7_861_734, 7_746_734, 7_966_326, 7_981_326];
const PLAIN_BEFORE: [u64; 6] = [779_412, 1_014_004, 999_004, 884_004, 1_103_596, 1_118_596];

fn finished_before(proc: usize, by_role: [u64; 6]) -> u64 {
    let [root, eight, seven, leaf_child, under_seven, leaf] = by_role;
    match proc {
        0 => root,
        1..=6 => eight,
        7 => seven,
        8 => leaf_child,
        57..=63 => under_seven,
        _ => leaf,
    }
}

#[test]
fn tree_nodes_forward_before_they_invalidate() {
    let run = || Dsm::run(DsmConfig::new(64).with_cost_model(CostModel::sp2()), wide_kernel);
    let single = run();
    // A departure reaches a leaf two hops below the root earlier, because
    // neither hop charges its own `mprotect`s first — and with it every
    // processor finishes earlier than even the root used to.
    let (_, issued) = single.results[63];
    assert!(
        issued.as_nanos() < LAST_LEAF_ISSUED_BEFORE,
        "P63 left the last merged barrier at {} ns",
        issued.as_nanos()
    );
    for (proc, elapsed) in single.elapsed.iter().enumerate() {
        assert!(elapsed.as_nanos() < EARLIEST_ELAPSED_BEFORE, "P{proc} finished at {elapsed:?}");
        // Serving arrivals as they come and sending each departure copy as
        // it is built only ever moves a processor earlier.
        let before = finished_before(proc, WIDE_BEFORE);
        assert!(elapsed.as_nanos() <= before, "P{proc} finished at {elapsed:?}, {before} before");
    }
    let total = single.stats.total();
    assert_eq!(total.page_faults, 64 * 3, "one write fault an epoch, no read fault");
    assert!(total.sync_wait_ns > 0, "the completions wait for the neighbours' diffs");
    // What leaves first, and which arrival a node serves first, is decided
    // in virtual time alone: the order the host threads deliver the
    // arrivals in, and which thread serves which request, cannot show.
    let again = run();
    assert_eq!(again.results, single.results, "results on a rerun");
    assert_eq!(again.elapsed, single.elapsed, "virtual times on a rerun");
    assert_eq!(again.stats, single.stats, "statistics on a rerun");
}

#[test]
fn the_root_sends_each_departure_copy_as_soon_as_it_is_built() {
    // One plain barrier over the adaptive arity-8 tree of 64 processors:
    // every arrival and departure is the same size, so a copy's arrival
    // time is its send time plus one fixed latency.
    const N: usize = 64;
    let cost = CostModel::sp2();
    let (arity, ..) = BarrierTopology::Adaptive.shape(N, &cost);
    assert_eq!(arity, 8);
    let run = Dsm::run(DsmConfig::new(N).with_cost_model(cost.clone()), |p| p.barrier());
    // After a plain barrier a processor's clock is where its departure
    // arrived, plus one hop service and a send gap per further copy if it
    // fans the departure out, plus the local bookkeeping.
    let received = |proc: usize| {
        let children = (proc * arity + 1..=proc * arity + arity).filter(|&c| c < N).count();
        let fan_out = if children == 0 {
            VirtualTime::ZERO
        } else {
            cost.barrier_hop_cost(1) + cost.broadcast_extra_cost(children - 1)
        };
        run.elapsed[proc] - fan_out - cost.barrier_local_cost()
    };
    // The root's children in ascending id: each copy leaves one send gap
    // after the one before, so the last (the leaf P8) receives its copy
    // `(arity − 1) · 15 µs` after the first (P1) — which no longer waits
    // for the others' gaps.
    let first = received(1);
    for (k, child) in (1..=arity).enumerate() {
        assert_eq!(received(child) - first, cost.broadcast_extra_cost(k), "P{child}");
    }
    assert_eq!(received(arity) - first, VirtualTime::from_micros(7 * 15));
    for (proc, elapsed) in run.elapsed.iter().enumerate() {
        let before = finished_before(proc, PLAIN_BEFORE);
        assert!(elapsed.as_nanos() <= before, "P{proc} finished at {elapsed:?}, {before} before");
    }
}

/// The words of the reduction test's array, the reduced section's first
/// word and its length: the section starts mid-page and crosses a page
/// boundary, with untouched words on either side.
const REDUCE_WORDS: usize = 2 * ELEMS;
const SECTION_START: usize = 100;
const SECTION_WORDS: usize = ELEMS + 150;

/// Word `w`'s value before any reduction.
fn initial(w: usize) -> u64 {
    (w as u64).wrapping_mul(0x0123_4567) ^ 0x55
}

/// Processor `q`'s partial of section word `w` in reduction `r` of `n`
/// processors: wrapping overflow, totals that cancel to zero, sparse
/// contributions, and words nobody contributes to.
fn reduce_partial(q: usize, n: usize, r: u64, w: usize) -> u64 {
    let cancelling = |q: usize| (q as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ r;
    match w % 7 {
        0 => u64::MAX - 3 * q as u64 - r,
        3 if q + 1 < n => cancelling(q),
        3 => (0..n - 1).map(cancelling).fold(0u64, u64::wrapping_add).wrapping_neg(),
        5 if q.is_multiple_of(2) => (w * 1000 + q) as u64 + r,
        _ => 0,
    }
}

/// What processor `q` of `n` reads of the section, as byte ranges of `a`:
/// the whole section for the last processor, nothing for every third,
/// and otherwise two overlapping ranges — the second may hang over either
/// end of the section — and the middle two bytes of one word.
fn reduce_wants(a: &treadmarks::SharedArray<u64>, q: usize, n: usize) -> Vec<pagedmem::AddrRange> {
    if q + 1 == n {
        return vec![a.range_of(SECTION_START, SECTION_START + SECTION_WORDS)];
    }
    if q % 3 == 1 {
        return Vec::new();
    }
    let lo = (q * 37) % SECTION_WORDS;
    let word = SECTION_START + (q * 53 + 11) % SECTION_WORDS;
    vec![
        a.range_of(SECTION_START + lo, SECTION_START + (lo + 60).min(SECTION_WORDS)),
        a.range_of((SECTION_START + lo + 40).saturating_sub(120), SECTION_START + lo + 41),
        pagedmem::AddrRange::new(a.addr_of(word).offset(3), 2),
    ]
}

/// Processor 0 writes every word's initial value, everybody reads them all
/// across a barrier, and `reductions` reductions follow. Returns the words
/// this processor's copy gets wrong: `(word, got, expected)`.
fn reduce_kernel(p: &mut Process, reductions: u64) -> Vec<(usize, u64, u64)> {
    let (n, me) = (p.nprocs(), p.proc_id());
    let a = p.alloc_array::<u64>(REDUCE_WORDS);
    if me == 0 {
        for w in 0..REDUCE_WORDS {
            p.set(&a, w, initial(w));
        }
    }
    p.barrier();
    let mut seen = vec![0u64; REDUCE_WORDS];
    p.get_slice(&a, 0..REDUCE_WORDS, &mut seen);
    let section = a.range_of(SECTION_START, SECTION_START + SECTION_WORDS);
    let wants: Vec<_> = (0..n).map(|q| reduce_wants(&a, q, n)).collect();
    let mut totals = vec![0u64; SECTION_WORDS];
    for r in 0..reductions {
        let partial: Vec<u64> = (0..SECTION_WORDS).map(|w| reduce_partial(me, n, r, w)).collect();
        p.reduce_add(section, &partial, &wants);
        for (w, total) in totals.iter_mut().enumerate() {
            let sum = (0..n).map(|q| reduce_partial(q, n, r, w)).fold(0, u64::wrapping_add);
            *total = total.wrapping_add(sum);
        }
    }
    p.get_slice(&a, 0..REDUCE_WORDS, &mut seen);
    let wanted = |w: usize| {
        let word = pagedmem::AddrRange::new(a.addr_of(w), 8);
        wants[me].iter().any(|range| range.intersect(&word).is_some_and(|r| !r.is_empty()))
    };
    let mut wrong = Vec::new();
    for (w, &got) in seen.iter().enumerate() {
        let in_section = (SECTION_START..SECTION_START + SECTION_WORDS).contains(&w);
        let expected = if in_section && wanted(w) {
            initial(w).wrapping_add(totals[w - SECTION_START])
        } else {
            initial(w)
        };
        if got != expected {
            wrong.push((w, got, expected));
        }
    }
    wrong
}

#[test]
fn a_reduction_sums_every_partial_and_delivers_only_the_wanted_words() {
    const REDUCTIONS: u64 = 3;
    let topologies = [
        BarrierTopology::Adaptive,
        BarrierTopology::Tree { arity: 1 },
        BarrierTopology::Tree { arity: 2 },
        BarrierTopology::Tree { arity: 3 },
        BarrierTopology::FlatMaster,
    ];
    for n in [1usize, 2, 3, 5, 8, 9, 64] {
        for topology in topologies {
            let run = |reductions| {
                let config = DsmConfig::new(n).with_cost_model(CostModel::sp2());
                Dsm::run(config.with_barrier(topology), move |p| reduce_kernel(p, reductions))
            };
            let (reduced, setup) = (run(REDUCTIONS), run(0));
            for (q, wrong) in reduced.results.iter().enumerate() {
                assert!(wrong.is_empty(), "P{q} of {n} over {topology:?}: {wrong:?}");
            }
            let messages = |run: &treadmarks::DsmRun<_>| run.stats.total().messages_sent;
            assert_eq!(
                messages(&reduced) - messages(&setup),
                REDUCTIONS * 2 * (n as u64 - 1),
                "one arrival and one departure a hop, {n} processors over {topology:?}"
            );
            let again = run(REDUCTIONS);
            assert_eq!(again.elapsed, reduced.elapsed, "clocks, {n} over {topology:?}");
            assert_eq!(again.stats, reduced.stats, "counters, {n} over {topology:?}");
        }
    }
}
