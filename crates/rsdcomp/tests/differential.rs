//! Differential testing, refuse side: every refusal class's generated
//! program is (a) statically refused with the matching [`Refusal`] and
//! (b) dynamically racy — the hand-written execution of the same pattern
//! without the preserved barrier triggers at least one race report naming
//! the racy page and a distinct processor pair — and where the sole-writer
//! proof behind an in-place `Push` fails, nothing is pushed.

use pagedmem::Addr;
use rsdcomp::{
    compile, Access, ArrayDecl, BoundaryClass, BoundarySummary, ColSpan, Node, Phase, Program,
    ReduceOp, Refusal, RefusalClass, SectionAccess,
};
use treadmarks::{Dsm, DsmConfig, RaceDetect};

const NPROCS_MATRIX: [usize; 4] = [2, 4, 8, 16];

#[test]
fn every_refusal_class_is_statically_refused() {
    for nprocs in NPROCS_MATRIX {
        for class in RefusalClass::ALL {
            let kernel = class.compile_refused(nprocs);
            // The refused boundary keeps a real barrier: nothing about the
            // program is pushed.
            assert!(
                kernel.boundaries.iter().all(|b| b.class != BoundaryClass::Push),
                "{} @ {nprocs} procs: refused program must not be optimized",
                class.name()
            );
        }
    }
}

#[test]
fn refusal_names_match_the_analyzer_vocabulary() {
    assert_eq!(RefusalClass::OverlappingWrites.expected_refusal(), Refusal::OverlappingWrites);
    assert_eq!(RefusalClass::NonAffine.expected_refusal(), Refusal::NonAffine);
    assert_eq!(
        RefusalClass::CrossBlockNoBarrier.expected_refusal(),
        Refusal::NonNeighbourDependence
    );
    assert_eq!(RefusalClass::LockWithoutAcquire.expected_refusal(), Refusal::OutsideAcquireChain);
    for class in RefusalClass::ALL {
        assert!(!class.name().is_empty());
    }
}

#[test]
fn every_refusal_class_is_dynamically_racy() {
    for nprocs in NPROCS_MATRIX {
        for class in RefusalClass::ALL {
            let outcome = class.run_racy(nprocs);
            outcome.assert_detected();
        }
    }
}

#[test]
fn racy_reports_are_deterministic_across_runs() {
    for class in RefusalClass::ALL {
        let render = |outcome: &rsdcomp::RacyOutcome| {
            outcome.races.iter().map(|r| r.to_string()).collect::<Vec<_>>().join("\n")
        };
        let first = render(&class.run_racy(4));
        for _ in 0..2 {
            assert_eq!(
                render(&class.run_racy(4)),
                first,
                "{}: report list must be byte-identical across runs",
                class.name()
            );
        }
    }
}

#[test]
fn shifting_ownership_never_pushes_in_place_sweeps() {
    // Both phases overwrite in place (READ&WRITE_ALL), but ownership
    // shifts: `a` writes a processor's own update block, `b` its right
    // neighbour's block. No processor is the sole writer of what it writes,
    // so no copy is final and the sweeps stay DSM-managed: every boundary
    // keeps its barrier, refused as not final.
    let a =
        Phase::new("a", vec![SectionAccess::new(0, ColSpan::UpdateBlock, Access::ReadWriteAll)]);
    let b = Phase::new(
        "b",
        vec![SectionAccess::new(
            0,
            ColSpan::BlockOf { offset: 1, wrap: false },
            Access::ReadWriteAll,
        )],
    );
    let program = Program {
        arrays: vec![ArrayDecl {
            name: "m",
            base: Addr::new(0),
            rows: 512,
            cols: 32,
            elem_bytes: 8,
        }],
        nodes: vec![Node::Repeat { times: 2, body: vec![a, b] }],
    };
    let not_final = BoundaryClass::FullBarrier { refusal: Some(Refusal::NotFinal) };
    for nprocs in NPROCS_MATRIX {
        let kernel = compile(&program, nprocs);
        assert_eq!(
            kernel.boundaries,
            vec![
                BoundarySummary { prev: 0, next: 1, class: not_final, occurrences: 2 },
                BoundarySummary { prev: 1, next: 0, class: not_final, occurrences: 1 },
            ],
            "{nprocs} procs"
        );
        assert_eq!(kernel.barriers(), 3, "{nprocs} procs");
        let p2p: usize = (0..nprocs).map(|me| kernel.plan_for(me).messages_sent()).sum();
        assert_eq!(p2p, 0, "{nprocs} procs: nothing moves point-to-point");
    }
}

#[test]
fn a_non_commutative_guarded_update_keeps_its_lock_and_runs_race_free() {
    // Accept side of the lock path: every processor rewrites the whole
    // array in place under one lock with `x -> 3x + me + 1`, whose result
    // depends on the holder order. That is a guarded `ReadWrite`, not an
    // accumulation, so nothing licenses a reduction: the full level keeps
    // the acquire at every update's entry and a barrier before each read.
    // Run from the compiled plan under the detector, it reports nothing,
    // and after the last barrier every processor reads the same words.
    const LOCK: rsdcomp::LockId = 5;
    const ROWS: usize = 64;
    for nprocs in [2, 4, 8] {
        let run = Dsm::run(DsmConfig::new(nprocs).with_race_detect(RaceDetect::Collect), |p| {
            let a = p.alloc_matrix::<u64>(ROWS, 2 * p.nprocs());
            let compiled = rsdcomp::exec::kernel_for(p, rsdcomp::Level::Full, || Program {
                arrays: vec![ArrayDecl::of_matrix("a", &a)],
                nodes: vec![Node::Repeat {
                    times: 3,
                    body: vec![
                        Phase::guarded(
                            "update",
                            vec![SectionAccess::new(0, ColSpan::All, Access::ReadWrite)],
                            LOCK,
                        ),
                        Phase::new(
                            "read",
                            vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::Read)],
                        ),
                    ],
                }],
            });
            let me = p.proc_id() as u64;
            let plan = compiled.kernel.plan_for(p.proc_id());
            let words = a.array().len();
            for step in &plan.steps {
                rsdcomp::exec::run_boundary(p, &step.entry);
                match step.phase {
                    0 => (0..words).for_each(|i| {
                        let x = p.get(a.array(), i);
                        p.set(a.array(), i, x.wrapping_mul(3).wrapping_add(me + 1));
                    }),
                    _ => {
                        p.get(a.array(), 0);
                    }
                }
                rsdcomp::exec::exit(p, step, &[]);
            }
            p.barrier();
            let all: Vec<u64> = (0..words).map(|i| p.get(a.array(), i)).collect();
            ((plan.lock_acquires(), plan.barriers(), plan.reductions()), all)
        });
        assert!(run.races.is_empty(), "{nprocs} procs: {:?}", run.races);
        let (shape, words) = &run.results[0];
        assert_eq!(*shape, (3, 3, 0), "{nprocs} procs: an acquire per update, a barrier per read");
        assert!(words.iter().all(|&w| w != 0), "{nprocs} procs: every update landed");
        for (other, theirs) in &run.results {
            assert_eq!((other, theirs), (shape, words), "{nprocs} procs: one coherent result");
        }
    }
}

#[test]
fn a_refused_guarded_accumulation_keeps_its_lock_and_runs_race_free() {
    // Accept side of a refused entry into a guarded phase: integer sort's
    // shape with the histogram accumulated through a non-affine subscript.
    // Nothing can be reduced and every merge entry refuses (`non-affine`),
    // so each keeps its barrier *and* takes the lock, releasing at the
    // exit. Run from the compiled plan under the detector, the merges are
    // critical sections: nothing is reported, and every increment lands.
    const LOCK: rsdcomp::LockId = 3;
    const ROWS: usize = 64;
    const ITERS: usize = 3;
    for nprocs in [2, 4, 8] {
        let run = Dsm::run(DsmConfig::new(nprocs).with_race_detect(RaceDetect::Collect), |p| {
            let keys = p.alloc_matrix::<u64>(ROWS, 2 * p.nprocs());
            let hist = p.alloc_matrix::<u64>(ROWS, 2 * p.nprocs());
            let compiled = rsdcomp::exec::kernel_for(p, rsdcomp::Level::Full, || Program {
                arrays: vec![
                    ArrayDecl::of_matrix("keys", &keys),
                    ArrayDecl::of_matrix("hist", &hist),
                ],
                nodes: vec![
                    Node::Phase(Phase::new(
                        "init",
                        vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)],
                    )),
                    Node::Repeat {
                        times: ITERS,
                        body: vec![
                            Phase::guarded(
                                "merge",
                                vec![
                                    SectionAccess::new(0, ColSpan::OwnBlock, Access::ReadWriteAll),
                                    SectionAccess::accumulate(
                                        1,
                                        ColSpan::Unknown,
                                        ReduceOp::WrappingAdd,
                                    ),
                                ],
                                LOCK,
                            ),
                            Phase::new(
                                "rank",
                                vec![SectionAccess::new(1, ColSpan::OwnBlock, Access::Read)],
                            ),
                        ],
                    },
                ],
            });
            let plan = compiled.kernel.plan_for(p.proc_id());
            let words = hist.array().len();
            let mine = rsdcomp::col_block(keys.cols(), p.nprocs(), p.proc_id());
            let own = mine.start * ROWS..mine.end * ROWS;
            for step in &plan.steps {
                rsdcomp::exec::run_boundary(p, &step.entry);
                match step.phase {
                    0 => own.clone().for_each(|i| p.set(keys.array(), i, (i * 31 % words) as u64)),
                    1 => own.clone().for_each(|i| {
                        let k = p.get(keys.array(), i) as usize;
                        let h = p.get(hist.array(), k);
                        p.set(hist.array(), k, h + 1);
                        p.set(keys.array(), i, ((k * 5 + i) % words) as u64);
                    }),
                    _ => {
                        p.get(hist.array(), own.start);
                    }
                }
                rsdcomp::exec::exit(p, step, &[]);
            }
            p.barrier();
            let all: Vec<u64> = (0..words).map(|i| p.get(hist.array(), i)).collect();
            ((plan.lock_acquires(), plan.barriers()), all)
        });
        assert!(run.races.is_empty(), "{nprocs} procs: {:?}", run.races);
        let (shape, words) = &run.results[0];
        assert_eq!(
            *shape,
            (ITERS, 2 * ITERS),
            "{nprocs} procs: a barrier and an acquire per merge"
        );
        let total: u64 = words.iter().sum();
        assert_eq!(total, (ITERS * words.len()) as u64, "{nprocs} procs: every increment landed");
        for (other, theirs) in &run.results {
            assert_eq!((other, theirs), (shape, words), "{nprocs} procs: one coherent result");
        }
    }
}
