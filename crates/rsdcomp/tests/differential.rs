//! Differential testing, refuse side: every refusal class's generated
//! program is (a) statically refused with the matching [`Refusal`] and
//! (b) dynamically racy — the hand-written execution of the same pattern
//! without the preserved barrier triggers at least one race report naming
//! the racy page and a distinct processor pair — and where the sole-writer
//! proof behind an in-place `Push` fails, nothing is pushed.

use pagedmem::Addr;
use rsdcomp::{
    compile, Access, ArrayDecl, BoundaryClass, BoundarySummary, ColSpan, Node, Phase, Program,
    Refusal, RefusalClass, SectionAccess,
};

const NPROCS_MATRIX: [usize; 4] = [2, 4, 8, 16];

#[test]
fn every_refusal_class_is_statically_refused() {
    for nprocs in NPROCS_MATRIX {
        for class in RefusalClass::ALL {
            let kernel = class.compile_refused(nprocs);
            // The refused boundary keeps a real barrier: nothing about the
            // program is eliminated or pushed.
            assert!(
                kernel.boundaries.iter().all(|b| !matches!(
                    b.class,
                    BoundaryClass::EliminatedBarrier | BoundaryClass::Push
                )),
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
    // so no copy is final and the sweeps stay DSM-managed — classified as
    // before in-place pushes existed: both `a -> b` boundaries eliminated,
    // the loop-back retained for the GC horizon.
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
    for nprocs in NPROCS_MATRIX {
        let kernel = compile(&program, nprocs);
        assert_eq!(
            kernel.boundaries,
            vec![
                BoundarySummary {
                    prev: 0,
                    next: 1,
                    class: BoundaryClass::EliminatedBarrier,
                    occurrences: 2
                },
                BoundarySummary {
                    prev: 1,
                    next: 0,
                    class: BoundaryClass::FullBarrier { refusal: None, gc_forced: true },
                    occurrences: 1
                },
            ],
            "{nprocs} procs"
        );
        assert_eq!((kernel.barriers(), kernel.barriers_eliminated()), (1, 2), "{nprocs} procs");
        let p2p: usize = (0..nprocs).map(|me| kernel.plan_for(me).messages_sent()).sum();
        assert_eq!(p2p, 4 * (nprocs - 1), "{nprocs} procs: one ready and one ack per pair, twice");
    }
}
