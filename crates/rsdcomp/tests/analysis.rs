//! Analyzer classification tests — including the refusal cases that must
//! *never* classify as an unsound elimination — and plan-generation
//! structure tests.

use pagedmem::Addr;
use rsdcomp::{
    analyze_boundary, compile, compile_at, Access, ArrayDecl, BoundaryClass, BoundaryOp, ColSpan,
    Level, Node, Phase, PhaseExit, Program, ReduceOp, Refusal, SectionAccess,
};

const ROWS: usize = 512;
const COLS: usize = 16;

fn decl(name: &'static str, base: usize) -> ArrayDecl {
    ArrayDecl { name, base: Addr::new(base), rows: ROWS, cols: COLS, elem_bytes: 8 }
}

fn sweep(name: &'static str, src: usize, dst: usize) -> Phase {
    Phase::new(
        name,
        vec![
            SectionAccess::new(src, ColSpan::UpdateHalo(1), Access::Read),
            SectionAccess::new(dst, ColSpan::UpdateBlock, Access::WriteAll),
        ],
    )
}

/// Red-black SOR's half-sweep: reads the halo, overwrites its own update
/// block in place.
fn half_sweep(name: &'static str, grid: usize) -> Phase {
    Phase::new(
        name,
        vec![
            SectionAccess::new(grid, ColSpan::UpdateHalo(1), Access::Read),
            SectionAccess::new(grid, ColSpan::UpdateBlock, Access::ReadWriteAll),
        ],
    )
}

/// An in-place half-sweep that writes only part of its update block: the
/// unwritten words survive, so the writer's copy is never final and the
/// pages stay DSM-managed.
fn partial_sweep(name: &'static str, grid: usize) -> Phase {
    Phase::new(
        name,
        vec![
            SectionAccess::new(grid, ColSpan::UpdateHalo(1), Access::Read),
            SectionAccess::new(grid, ColSpan::UpdateBlock, Access::ReadWrite),
        ],
    )
}

fn init(arrays: &[usize]) -> Phase {
    Phase::new(
        "init",
        arrays
            .iter()
            .map(|&a| SectionAccess::new(a, ColSpan::OwnBlock, Access::WriteAll))
            .collect(),
    )
}

#[test]
fn double_buffered_stencils_classify_as_push() {
    // Jacobi's shape: WriteAll into the other grid, nearest-neighbour
    // reads — producer-known consumer sets with known final bytes.
    let program = Program {
        arrays: vec![decl("a", 0), decl("b", ROWS * COLS * 8)],
        nodes: vec![Node::Phase(sweep("ab", 0, 1)), Node::Phase(sweep("ba", 1, 0))],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(analysis.class, BoundaryClass::Push);
    // Dependence pairs are the non-wrapping neighbour pairs.
    for pair in &analysis.pairs {
        assert_eq!(pair.producer.abs_diff(pair.consumer), 1);
        assert!(!pair.regions.is_empty());
    }
    assert_eq!(analysis.pairs.len(), 6, "3 interior boundaries x 2 directions");
}

#[test]
fn sole_writer_in_place_sweeps_classify_as_push() {
    // SOR's shape: READ&WRITE_ALL in place. Every processor is the only
    // writer of its own columns in every phase, so its raw copy is final
    // and the half-sweeps push like a WRITE_ALL producer — no barrier,
    // nothing DSM-managed.
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![Node::Phase(half_sweep("red", 0)), Node::Phase(half_sweep("black", 0))],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(analysis.class, BoundaryClass::Push);
    assert_eq!(analysis.pairs.len(), 6, "3 interior boundaries x 2 directions");
    for nprocs in [2, 4, 8] {
        let kernel = compile(&sor_shaped_program(), nprocs);
        assert!(
            kernel.boundaries.iter().all(|b| b.class == BoundaryClass::Push),
            "{nprocs} procs: {:?}",
            kernel.boundaries
        );
        assert_eq!(kernel.barriers(), 0);
    }
}

#[test]
fn non_final_in_place_sweeps_refuse_as_not_final() {
    // An in-place sweep whose copy is not final keeps its pages
    // DSM-managed, and the barrier that delivers their notices stays: a
    // partial write, whose unwritten words survive…
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![Node::Phase(partial_sweep("red", 0)), Node::Phase(partial_sweep("black", 0))],
    };
    let phases = program.phases();
    let not_final = BoundaryClass::FullBarrier { refusal: Some(Refusal::NotFinal) };
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(analysis.class, not_final);
    assert_eq!(analysis.pairs.len(), 6, "3 interior boundaries x 2 directions");
    // …or a READ&WRITE_ALL sweep over bytes a second processor also writes
    // somewhere in the program (here each processor once overwrites its
    // right neighbour's block).
    let shift = Phase::new(
        "shift",
        vec![SectionAccess::new(0, ColSpan::BlockOf { offset: 1, wrap: false }, Access::WriteAll)],
    );
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![
            Node::Phase(half_sweep("red", 0)),
            Node::Phase(half_sweep("black", 0)),
            Node::Phase(shift),
        ],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(analysis.class, not_final);
}

#[test]
fn overlapping_write_sections_refuse_elimination() {
    // Both processors write their halo-extended block: neighbouring
    // sections overlap, the phase output is order-dependent, and only the
    // full barrier is sound.
    let overlapping =
        Phase::new("bad", vec![SectionAccess::new(0, ColSpan::UpdateHalo(1), Access::Write)]);
    let reader =
        Phase::new("read", vec![SectionAccess::new(0, ColSpan::UpdateHalo(1), Access::Read)]);
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![Node::Phase(overlapping), Node::Phase(reader)],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(
        analysis.class,
        BoundaryClass::FullBarrier { refusal: Some(Refusal::OverlappingWrites) }
    );
}

#[test]
fn non_affine_subscripts_refuse_elimination() {
    // An indirection (`Unknown` span) anywhere in the boundary's phases
    // means the consumer set cannot be computed: full barrier.
    let writer =
        Phase::new("write", vec![SectionAccess::new(0, ColSpan::UpdateBlock, Access::WriteAll)]);
    let gather = Phase::new("gather", vec![SectionAccess::new(0, ColSpan::Unknown, Access::Read)]);
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![Node::Phase(writer), Node::Phase(gather)],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(analysis.class, BoundaryClass::FullBarrier { refusal: Some(Refusal::NonAffine) });
}

#[test]
fn cross_block_reductions_refuse_elimination() {
    // The read side of a reduction touches every block: a global
    // dependence, never a named-producer sync — even though the producers
    // wrote under WriteAll.
    let produce =
        Phase::new("produce", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)]);
    let reduce = Phase::new(
        "reduce",
        vec![
            SectionAccess::new(0, ColSpan::All, Access::Read),
            SectionAccess::new(1, ColSpan::OwnBlock, Access::WriteAll),
        ],
    );
    let program = Program {
        arrays: vec![decl("m", 0), decl("acc", ROWS * COLS * 8)],
        nodes: vec![Node::Phase(produce), Node::Phase(reduce)],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(
        analysis.class,
        BoundaryClass::FullBarrier { refusal: Some(Refusal::NonNeighbourDependence) }
    );
}

#[test]
fn far_dependences_without_write_all_refuse_elimination() {
    // A distance-2 dependence whose producer writes only part of its
    // section: not pushable (the copy is not final) — full barrier.
    let update =
        Phase::new("update", vec![SectionAccess::new(0, ColSpan::UpdateBlock, Access::ReadWrite)]);
    let far = Phase::new(
        "far",
        vec![SectionAccess::new(0, ColSpan::BlockOf { offset: 2, wrap: false }, Access::Read)],
    );
    let program =
        Program { arrays: vec![decl("m", 0)], nodes: vec![Node::Phase(update), Node::Phase(far)] };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 8, phases[0], phases[1]);
    assert_eq!(analysis.class, BoundaryClass::FullBarrier { refusal: Some(Refusal::NotFinal) });
}

#[test]
fn ring_patterns_with_write_all_still_push() {
    // Producer-known consumer sets need not be nearest-neighbour: a ring
    // (each processor reads its successor's block) pushes fine because the
    // producers' WriteAll bytes are final.
    let produce =
        Phase::new("produce", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)]);
    let consume = Phase::new(
        "consume",
        vec![SectionAccess::new(0, ColSpan::BlockOf { offset: 1, wrap: true }, Access::Read)],
    );
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![Node::Phase(produce), Node::Phase(consume)],
    };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(analysis.class, BoundaryClass::Push);
    // Processor 0's block goes to processor 3 (the wrap pair).
    assert!(analysis.pairs.iter().any(|p| p.producer == 0 && p.consumer == 3));
}

#[test]
fn disjoint_phases_need_no_synchronization() {
    let a = Phase::new("a", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)]);
    let b = Phase::new("b", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::ReadWriteAll)]);
    let program =
        Program { arrays: vec![decl("m", 0)], nodes: vec![Node::Phase(a), Node::Phase(b)] };
    let phases = program.phases();
    let analysis = analyze_boundary(&program, 4, phases[0], phases[1]);
    assert_eq!(analysis.class, BoundaryClass::NoComm);
    assert!(analysis.pairs.is_empty());
}

#[test]
fn dependences_spanning_several_boundaries_are_still_enforced() {
    // Regression test: the write is in phase A, the read two phases later
    // in C, and the boundary between them (A -> B) has no dependence of
    // its own. Adjacent-pair analysis classified both boundaries NoComm
    // and dropped every barrier, so C's cross-block read of A's remote
    // writes ran with no happens-before edge. The accumulated-writes walk
    // must catch the A -> C dependence at the B -> C boundary.
    let a = Phase::new("a", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)]);
    let b = Phase::new("b", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::Read)]);
    let c = Phase::new(
        "c",
        vec![
            SectionAccess::new(0, ColSpan::All, Access::Read),
            SectionAccess::new(1, ColSpan::OwnBlock, Access::WriteAll),
        ],
    );
    let program = Program {
        arrays: vec![decl("m", 0), decl("acc", ROWS * COLS * 8)],
        nodes: vec![Node::Phase(a), Node::Phase(b), Node::Phase(c)],
    };
    let kernel = compile(&program, 4);
    let class_of = |prev: usize, next: usize| {
        kernel
            .boundaries
            .iter()
            .find(|s| s.prev == prev && s.next == next)
            .map(|s| s.class)
            .expect("boundary exists")
    };
    assert_eq!(class_of(0, 1), BoundaryClass::NoComm, "A -> B really has no dependence");
    assert_eq!(
        class_of(1, 2),
        BoundaryClass::FullBarrier { refusal: Some(Refusal::NonNeighbourDependence) },
        "the A -> C cross-block dependence must surface at the B -> C boundary"
    );
    assert_eq!(kernel.barriers(), 1, "one real barrier must survive to enforce it");

    // A neighbour-shaped skipped dependence out of a partial write keeps
    // its barrier too: the refusal surfaces where the read happens.
    let writer =
        Phase::new("w", vec![SectionAccess::new(0, ColSpan::UpdateBlock, Access::ReadWrite)]);
    let idle = Phase::new("idle", vec![SectionAccess::new(1, ColSpan::OwnBlock, Access::WriteAll)]);
    let reader = Phase::new("r", vec![SectionAccess::new(0, ColSpan::UpdateHalo(1), Access::Read)]);
    let program = Program {
        arrays: vec![decl("m", 0), decl("scratch", ROWS * COLS * 8)],
        nodes: vec![Node::Phase(writer), Node::Phase(idle), Node::Phase(reader)],
    };
    let kernel = compile(&program, 4);
    let class_of = |prev: usize, next: usize| {
        kernel
            .boundaries
            .iter()
            .find(|s| s.prev == prev && s.next == next)
            .map(|s| s.class)
            .expect("boundary exists")
    };
    assert_eq!(class_of(0, 1), BoundaryClass::NoComm);
    assert_eq!(
        class_of(1, 2),
        BoundaryClass::FullBarrier { refusal: Some(Refusal::NotFinal) },
        "the skipped-a-phase neighbour dependence still gets its barrier"
    );
}

#[test]
fn non_final_sweep_loops_keep_a_barrier_at_every_boundary() {
    // A loop of partial-write half-sweeps: every sweep -> sweep boundary,
    // in the body and at the loop-back, keeps its barrier, refused as not
    // final; the init boundary, pushable in isolation, is demoted because
    // the program flushes. Nothing moves point-to-point.
    let kernel = compile(&partial_sweep_program(), 4);
    let class_of = |prev: usize, next: usize| {
        kernel
            .boundaries
            .iter()
            .find(|b| b.prev == prev && b.next == next)
            .map(|b| b.class)
            .expect("boundary exists")
    };
    let not_final = BoundaryClass::FullBarrier { refusal: Some(Refusal::NotFinal) };
    assert_eq!(class_of(1, 2), not_final, "red -> black");
    assert_eq!(class_of(2, 1), not_final, "the loop-back");
    assert_eq!(
        class_of(0, 1),
        BoundaryClass::FullBarrier { refusal: Some(Refusal::MixedWithManagedPhases) }
    );
    assert_eq!(kernel.barriers(), 6);
    assert!((0..4).all(|me| kernel.plan_for(me).messages_sent() == 0));
}

#[test]
fn pushes_demote_when_the_program_keeps_managed_phases() {
    // A pushable ring boundary inside a program that also flushes (a
    // partial-write half-sweep elsewhere): raw pushes would be re-shipped by
    // later diffs, so every pushable boundary — the ring here, and a
    // neighbour-shaped one alike — falls back to a full barrier.
    let produce =
        Phase::new("produce", vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)]);
    let consume = Phase::new(
        "consume",
        vec![SectionAccess::new(0, ColSpan::BlockOf { offset: 1, wrap: true }, Access::Read)],
    );
    let relax = partial_sweep("relax", 0);
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![
            Node::Phase(produce),
            Node::Phase(consume),
            Node::Repeat { times: 2, body: vec![relax] },
        ],
    };
    let kernel = compile(&program, 4);
    let class_of = |prev: usize, next: usize| {
        kernel
            .boundaries
            .iter()
            .find(|b| b.prev == prev && b.next == next)
            .map(|b| b.class)
            .expect("boundary exists")
    };
    assert_eq!(
        class_of(0, 1),
        BoundaryClass::FullBarrier { refusal: Some(Refusal::MixedWithManagedPhases) },
        "a wrap-ring push must not survive next to managed phases"
    );
    assert_eq!(
        class_of(1, 2),
        BoundaryClass::FullBarrier { refusal: Some(Refusal::MixedWithManagedPhases) },
        "nor a neighbour-shaped one"
    );
}

#[test]
fn plans_are_spmd_consistent_and_collectives_match() {
    let nprocs = 4;
    for kernel in
        [compile(&partial_sweep_program(), nprocs), compile(&sor_shaped_program(), nprocs)]
    {
        assert_collectives_match(&kernel, nprocs);
    }
}

fn assert_collectives_match(kernel: &rsdcomp::CompiledKernel, nprocs: usize) {
    for me in 0..nprocs {
        let plan = kernel.plan_for(me);
        // Every plan has the same step skeleton (phase ids and op kinds).
        let kinds: Vec<&str> = plan.steps.iter().map(|s| s.entry.name()).collect();
        let reference: Vec<&str> =
            kernel.plan_for(0).steps.iter().map(|s| s.entry.name()).collect();
        assert_eq!(kinds, reference, "proc {me} must share the SPMD step skeleton");
        for (idx, step) in plan.steps.iter().enumerate() {
            let BoundaryOp::Push { sends, recv_from, .. } = &step.entry else { continue };
            for push in sends.iter() {
                let BoundaryOp::Push { recv_from: theirs, .. } =
                    &kernel.plan_for(push.dest).steps[idx].entry
                else {
                    panic!("mismatched push");
                };
                assert!(theirs.contains(&me));
            }
            for &src in recv_from.iter() {
                let BoundaryOp::Push { sends: theirs, .. } = &kernel.plan_for(src).steps[idx].entry
                else {
                    panic!("mismatched push");
                };
                assert!(theirs.iter().any(|p| p.dest == me));
            }
        }
    }
}

/// Red-black SOR's shape at 16 columns: all pushes at the full level.
fn sor_shaped_program() -> Program {
    Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![
            Node::Phase(init(&[0])),
            Node::Repeat { times: 3, body: vec![half_sweep("red", 0), half_sweep("black", 0)] },
        ],
    }
}

/// The same loop over partial-write half-sweeps: a barrier at every
/// boundary, the pages DSM-managed.
fn partial_sweep_program() -> Program {
    Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![
            Node::Phase(init(&[0])),
            Node::Repeat {
                times: 3,
                body: vec![partial_sweep("red", 0), partial_sweep("black", 0)],
            },
        ],
    }
}

/// Jacobi's shape: two grids, an init and three double sweeps — all pushes
/// at the full level.
fn jacobi_shaped_program() -> Program {
    Program {
        arrays: vec![decl("a", 0), decl("b", ROWS * COLS * 8)],
        nodes: vec![
            Node::Phase(init(&[0, 1])),
            Node::Repeat { times: 3, body: vec![sweep("ab", 0, 1), sweep("ba", 1, 0)] },
        ],
    }
}

#[test]
fn the_full_level_is_compile_and_the_validate_level_keeps_only_barriers() {
    for program in [partial_sweep_program(), sor_shaped_program(), jacobi_shaped_program()] {
        for nprocs in [1, 4, 8] {
            assert_eq!(compile_at(&program, nprocs, Level::Full), compile(&program, nprocs));
            let kernel = compile_at(&program, nprocs, Level::Validate);
            // Every boundary of both shapes communicates (at one processor
            // none does): init -> first sweep and every sweep -> sweep.
            assert_eq!(kernel.barriers(), if nprocs == 1 { 0 } else { 6 });
            for me in 0..nprocs {
                let plan = kernel.plan_for(me);
                for step in &plan.steps {
                    assert!(
                        matches!(
                            step.entry,
                            BoundaryOp::Local { .. }
                                | BoundaryOp::Barrier { .. }
                                | BoundaryOp::Lock { .. }
                        ),
                        "{} at the validate level",
                        step.entry.name()
                    );
                }
                assert_eq!(plan.messages_sent(), 0, "no point-to-point op survives");
            }
        }
    }
}

#[test]
fn compile_is_a_pure_function_whichever_thread_runs_it() {
    // The stated precondition for sharing one kernel per run
    // (`exec::kernel_for`): the output depends on the program and the
    // cluster size only, so it does not matter which processor's host
    // thread happens to compile.
    let program = partial_sweep_program();
    let nprocs = 8;
    let reference = compile(&program, nprocs);
    let elsewhere: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| compile(&program, nprocs))).collect();
        handles.into_iter().map(|h| h.join().expect("compile does not panic")).collect()
    });
    for kernel in elsewhere {
        assert_eq!(kernel, reference);
    }
}

#[test]
fn kernel_for_compiles_once_per_run_and_hands_every_processor_the_same_kernel() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let nprocs = 8;
    let builds = AtomicUsize::new(0);
    let run = treadmarks::Dsm::run(treadmarks::DsmConfig::new(nprocs), |p| {
        let compiled = rsdcomp::exec::kernel_for(p, Level::Full, || {
            builds.fetch_add(1, Ordering::SeqCst);
            partial_sweep_program()
        });
        let me = p.proc_id();
        let mine = compiled.kernel.plan_for(me) == compile(&compiled.program, nprocs).plan_for(me);
        (std::sync::Arc::as_ptr(&compiled) as usize, mine)
    });
    assert_eq!(builds.load(Ordering::SeqCst), 1, "the program is built once per run");
    assert_eq!(run.once_inits, vec![1], "and compiled once");
    for (ptr, mine) in &run.results {
        assert_eq!(*ptr, run.results[0].0, "one kernel, shared");
        assert!(mine, "the borrowed plan is the plan a private compile would produce");
    }
    assert_eq!(run.stats.total().messages_sent, 0, "compilation is not run time");
    assert!(run.elapsed.iter().all(|t| *t == Default::default()), "nor virtual time");
}

#[test]
fn jacobi_shaped_plans_prepare_once_then_warm() {
    // All-push steady state: after the first preparation no flush boundary
    // ever occurs, so subsequent push entries carry no sections and run on
    // the pages the first preparation left writable — the plan reproduces
    // the hand-written push variant's cost shape.
    let kernel = compile(&jacobi_shaped_program(), 4);
    assert_eq!(kernel.barriers(), 0, "a fully pushable loop keeps no barrier");
    let plan = kernel.plan_for(1);
    let mut push_preps = 0;
    let mut push_warms = 0;
    for step in &plan.steps {
        if let BoundaryOp::Push { sections, .. } = &step.entry {
            if sections.is_empty() {
                push_warms += 1;
            } else {
                push_preps += 1;
            }
        }
    }
    // Each sweep phase prepares at its first occurrence only.
    assert_eq!(push_preps, 2);
    assert_eq!(push_warms, 4);
}

#[test]
fn explain_is_deterministic_and_names_the_decisions() {
    let program = Program {
        arrays: vec![decl("m", 0)],
        nodes: vec![
            Node::Phase(init(&[0])),
            Node::Repeat {
                times: 2,
                body: vec![partial_sweep("red", 0), partial_sweep("black", 0)],
            },
        ],
    };
    let kernel = compile(&program, 4);
    let a = rsdcomp::explain(&program, &kernel);
    let b = rsdcomp::explain(&program, &compile(&program, 4));
    assert_eq!(a, b, "explain must be byte-deterministic");
    assert!(a.contains("barrier (refused: not-final)"));
    assert!(a.contains("barrier (refused: mixed-with-managed-phases)"));
    assert!(a.contains("totals:"));
}

/// The lock integer sort's histogram merge claims.
const MERGE_LOCK: rsdcomp::LockId = 3;

/// Integer sort's shape: `keys` (array 0) initialised per block, then
/// `iters` rounds of a guarded merge that accumulates `merge`'s extra
/// accesses plus the histogram (array 1) into every bucket, and an
/// unguarded rank reading the own bucket block. `extra` is appended to the
/// merge's accesses, `after` to the loop body.
fn is_shaped_program(extra: Vec<SectionAccess>, after: Vec<Phase>) -> Program {
    let mut merge = vec![
        SectionAccess::new(0, ColSpan::OwnBlock, Access::ReadWriteAll),
        SectionAccess::accumulate(1, ColSpan::All, ReduceOp::WrappingAdd),
    ];
    merge.extend(extra);
    let mut body = vec![
        Phase::guarded("merge", merge, MERGE_LOCK),
        Phase::new("rank", vec![SectionAccess::new(1, ColSpan::OwnBlock, Access::Read)]),
    ];
    body.extend(after);
    Program {
        arrays: vec![
            decl("keys", 0),
            decl("hist", ROWS * COLS * 8),
            decl("aux", 2 * ROWS * COLS * 8),
        ],
        nodes: vec![Node::Phase(init(&[0])), Node::Repeat { times: 3, body }],
    }
}

/// Every distinct boundary of `kernel` as `(prev, next, class)`.
fn classes(kernel: &rsdcomp::CompiledKernel) -> Vec<(usize, usize, BoundaryClass)> {
    kernel.boundaries.iter().map(|b| (b.prev, b.next, b.class)).collect()
}

#[test]
fn merge_to_rank_reduces_at_the_full_level_and_keeps_the_lock_at_the_validate_level() {
    let program = is_shaped_program(Vec::new(), Vec::new());
    for nprocs in [2, 4, 8] {
        // Full: the merge's exit reduces, nothing else communicates, and no
        // processor takes the lock.
        let full = compile(&program, nprocs);
        assert_eq!(
            classes(&full),
            [
                (0, 1, BoundaryClass::NoComm),
                (1, 2, BoundaryClass::Reduce),
                (2, 1, BoundaryClass::NoComm)
            ],
            "{nprocs} procs"
        );
        for me in 0..nprocs {
            let plan = full.plan_for(me);
            assert_eq!((plan.reductions(), plan.lock_acquires(), plan.barriers()), (3, 0, 0));
            for step in plan.steps.iter().filter(|s| s.phase == 1) {
                let PhaseExit::Reduce(reduction) = &step.exit else {
                    panic!("{nprocs} procs: the merge's exit must reduce, got {:?}", step.exit);
                };
                assert_eq!(reduction.op, ReduceOp::WrappingAdd);
                assert_eq!(reduction.section.len(), ROWS * COLS * 8, "the whole histogram");
            }
        }
        // Validate: the accumulation is the guarded read-modify-write, so
        // every merge entry is the acquire and merge -> rank the barrier
        // the lock-ordered writes need (the intended sync, not a refusal).
        let validate = compile_at(&program, nprocs, Level::Validate);
        assert_eq!(
            classes(&validate),
            [
                (0, 1, BoundaryClass::Lock(MERGE_LOCK)),
                (1, 2, BoundaryClass::FullBarrier { refusal: None }),
                (2, 1, BoundaryClass::Lock(MERGE_LOCK))
            ],
            "{nprocs} procs"
        );
        for me in 0..nprocs {
            let plan = validate.plan_for(me);
            assert_eq!((plan.reductions(), plan.lock_acquires(), plan.barriers()), (0, 3, 3));
        }
    }
}

#[test]
fn accumulations_anything_else_touches_keep_the_lock() {
    // Each program differs from the reducible shape in one way that makes
    // a private partial unsound; the full level then keeps the lock path
    // exactly as the validate level plans it. With the non-affine span every
    // merge entry refuses as well: it keeps its barrier and still takes the
    // lock, so the merge stays a critical section.
    let second_section = is_shaped_program(
        vec![SectionAccess::accumulate(2, ColSpan::All, ReduceOp::WrappingAdd)],
        Vec::new(),
    );
    let read_inside =
        is_shaped_program(vec![SectionAccess::new(1, ColSpan::OwnBlock, Access::Read)], Vec::new());
    // Guarded by the merge's own lock, so the chain still orders it and
    // every merge entry stays an acquire.
    let plain_write_elsewhere = is_shaped_program(
        Vec::new(),
        vec![Phase::guarded(
            "clear",
            vec![SectionAccess::new(1, ColSpan::OwnBlock, Access::Write)],
            MERGE_LOCK,
        )],
    );
    let mut non_affine = is_shaped_program(Vec::new(), Vec::new());
    let Node::Repeat { body, .. } = &mut non_affine.nodes[1] else { unreachable!() };
    body[0].accesses[1] = SectionAccess::accumulate(1, ColSpan::Unknown, ReduceOp::WrappingAdd);
    let mut iteration_dependent = is_shaped_program(Vec::new(), Vec::new());
    let Node::Repeat { body, .. } = &mut iteration_dependent.nodes[1] else { unreachable!() };
    body[0].accesses[1] = SectionAccess::accumulate(1, ColSpan::OwnTail, ReduceOp::WrappingAdd);
    let mut narrow = is_shaped_program(Vec::new(), Vec::new());
    narrow.arrays[1].elem_bytes = 4;
    // Nothing else touches the histogram, so the accumulation alone is
    // reducible; but another lock's phase keeps a boundary that flushes,
    // and a raw install next to the protocol is unsound.
    let flushes_elsewhere = is_shaped_program(
        Vec::new(),
        vec![Phase::guarded(
            "tally",
            vec![SectionAccess::new(2, ColSpan::OwnBlock, Access::Write)],
            MERGE_LOCK + 1,
        )],
    );
    for (name, program) in [
        ("two accumulated sections", second_section),
        ("a read of the accumulated words in the accumulating phase", read_inside),
        ("a plain write to them in another phase", plain_write_elsewhere),
        ("a non-affine accumulation span", non_affine),
        ("an iteration-dependent accumulation span", iteration_dependent),
        ("a histogram of 4-byte words", narrow),
        ("another boundary that still flushes", flushes_elsewhere),
    ] {
        let acquires = match name {
            "a plain write to them in another phase" | "another boundary that still flushes" => 6,
            _ => 3,
        };
        for nprocs in [2, 4, 8] {
            let full = compile(&program, nprocs);
            assert_eq!(
                full,
                compile_at(&program, nprocs, Level::Validate),
                "{name}, {nprocs} procs"
            );
            assert!(full.boundaries.iter().all(|b| b.class != BoundaryClass::Reduce), "{name}");
            assert_eq!(full.plan_for(0).reductions(), 0, "{name}, {nprocs} procs");
            assert_eq!(full.plan_for(0).lock_acquires(), acquires, "{name}, {nprocs} procs");
            if name == "a non-affine accumulation span" {
                for step in full.plan_for(0).steps.iter().filter(|s| s.phase == 1) {
                    assert!(
                        matches!(step.entry, BoundaryOp::BarrierLock { lock: MERGE_LOCK, .. }),
                        "{nprocs} procs: the refused entry runs the barrier, then the acquire"
                    );
                    assert_eq!(step.exit, PhaseExit::Release(MERGE_LOCK), "{nprocs} procs");
                }
            }
        }
    }
}
