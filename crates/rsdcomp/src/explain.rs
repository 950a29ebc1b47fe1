//! Deterministic textual dump of a compiled kernel (`dsm-bench --explain`).

use crate::analysis::BoundaryClass;
use crate::ir::Program;
use crate::plan::{BoundaryOp, CompiledKernel, PhaseExit};

/// Renders the compiled kernel as deterministic text: the phases, every
/// distinct boundary's classification (with refusal reasons and GC-forced
/// retentions spelled out), per-processor message counts and the totals.
/// Pure function of the compile output — byte-identical across runs.
pub fn explain(program: &Program, kernel: &CompiledKernel) -> String {
    let phases = program.phases();
    let mut out = String::new();
    out.push_str(&format!("compiled for {} processors\n", kernel.nprocs));
    out.push_str("phases:\n");
    for (id, phase) in phases.iter().enumerate() {
        let accesses: Vec<String> = phase
            .accesses
            .iter()
            .map(|a| {
                let name = program.arrays[a.array].name;
                match a.accumulates {
                    Some(op) => format!("{name}[{:?}]:Accumulate({op:?})", a.span),
                    None => format!("{name}[{:?}]:{:?}", a.span, a.access),
                }
            })
            .collect();
        let guard = match phase.lock {
            Some(lock) => format!(" guarded by lock {lock}"),
            None => String::new(),
        };
        out.push_str(&format!("  {id}: {} ({}){guard}\n", phase.name, accesses.join(", ")));
    }
    out.push_str("boundaries:\n");
    for b in &kernel.boundaries {
        let detail = match b.class {
            BoundaryClass::FullBarrier { refusal: Some(r), .. } => {
                format!(" (refused: {})", r.name())
            }
            BoundaryClass::FullBarrier { gc_forced: true, .. } => {
                " (retained for the GC horizon)".to_string()
            }
            _ => String::new(),
        };
        out.push_str(&format!(
            "  {} -> {}: {}{} x{}\n",
            phases[b.prev].name,
            phases[b.next].name,
            b.class.name(),
            detail,
            b.occurrences
        ));
    }
    out.push_str("per-processor plans:\n");
    for me in 0..kernel.nprocs {
        let plan = kernel.plan_for(me);
        let ops: Vec<String> = plan
            .steps
            .iter()
            .map(|s| {
                let name = s.entry.name();
                let phase = phases[s.phase].name;
                let exit = match s.exit {
                    PhaseExit::Nothing => "",
                    PhaseExit::Release(_) => "+release",
                    PhaseExit::Reduce(_) => "+reduce",
                };
                match &s.entry {
                    BoundaryOp::NeighborSync { producers, consumers, .. } => {
                        format!("{name}(p={producers:?},c={consumers:?})->{phase}{exit}")
                    }
                    BoundaryOp::Push { sends, recv_from, .. } => {
                        let dests: Vec<usize> = sends.iter().map(|p| p.dest).collect();
                        format!("{name}(to={dests:?},from={recv_from:?})->{phase}{exit}")
                    }
                    BoundaryOp::Lock { lock, .. } => format!("{name}({lock})->{phase}{exit}"),
                    _ => format!("{name}->{phase}{exit}"),
                }
            })
            .collect();
        out.push_str(&format!(
            "  proc {me}: {} [p2p msgs: {}]\n",
            ops.join(", "),
            plan.messages_sent()
        ));
    }
    let p2p: usize = (0..kernel.nprocs).map(|me| kernel.plan_for(me).messages_sent()).sum();
    out.push_str(&format!(
        "totals: steps={} real-barriers={} eliminated-barriers={} lock-acquires={} reductions={} \
         p2p-messages={}\n",
        kernel.plan_for(0).steps.len(),
        kernel.barriers(),
        kernel.barriers_eliminated(),
        kernel.plan_for(0).lock_acquires(),
        kernel.plan_for(0).reductions(),
        p2p
    ));
    out
}
