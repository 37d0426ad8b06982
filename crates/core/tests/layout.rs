//! Vector Runahead must not hinge on where a kernel's loads sit.
//!
//! VR finds its striding load in the L1-D prefetcher's stride table.
//! A table that maps PCs to sets lets three hot loads of one loop body
//! evict each other before any becomes confident, and then VR never
//! vectorises. Which loads collide depends only on their PCs, so the
//! test shifts every PC with [`pad_loads`] and asks each padded layout
//! of the hpc-db kernels to still find its striding load.

use vr_core::{CoreConfig, RunaheadConfig, Simulator};
use vr_isa::{Inst, Op, Program, Reg, RegRef};
use vr_mem::MemConfig;
use vr_workloads::{hpcdb_suite, Scale, Workload};

/// Committed instructions per layout: enough for a lost striding load
/// to show as zero batches, cheap enough for a debug build.
const INSTS: u64 = 60_000;

/// Filler counts swept per load.
const FILLERS: std::ops::RangeInclusive<usize> = 0..=8;

/// Most no-stride intervals any padded layout may report. Over these 72
/// layouts the fully associative table reads at most 18 (NAS-CG at
/// F = 7; HJ8 reads 10-14 at every F). On the 2-way set-indexed table it replaced, the five layouts
/// that lost their striding load read 25-231.
const MAX_NO_STRIDE: u64 = 20;

/// `prog` with `f` independent `li` instructions after every load, all
/// writing one integer register that `prog` never reads or writes.
/// Branch and `jal` targets, which are absolute instruction indices,
/// are remapped to the instructions they named; `jalr` targets come
/// from links written at run time and need no remapping. Architectural
/// behaviour is unchanged except for the filler register.
fn pad_loads(prog: &Program, f: usize) -> Program {
    let insts = prog.insts();
    let mut used = [false; Reg::COUNT];
    used[0] = true;
    for inst in insts {
        for r in inst.dst().into_iter().chain(inst.srcs()) {
            if let RegRef::Int(r) = r {
                used[r.index()] = true;
            }
        }
    }
    let filler = used.iter().rposition(|&u| !u).expect("a register the program never uses");
    // `new_pc[i]`: where old instruction `i` lands (one past the end too).
    let mut new_pc = Vec::with_capacity(insts.len() + 1);
    let mut loads = 0;
    for (i, inst) in insts.iter().enumerate() {
        new_pc.push((i + f * loads) as i64);
        loads += usize::from(inst.is_load());
    }
    new_pc.push((insts.len() + f * loads) as i64);
    let mut out = Vec::with_capacity(insts.len() + f * loads);
    for inst in insts {
        let mut inst = *inst;
        if inst.is_cond_branch() || inst.op == Op::Jal {
            inst.imm = new_pc[usize::try_from(inst.imm).expect("absolute target")];
        }
        out.push(inst);
        if inst.is_load() {
            for k in 0..f {
                out.push(Inst { op: Op::Li, rd: filler as u8, imm: k as i64, ..Inst::NOP });
            }
        }
    }
    Program::new(out)
}

fn run_vr(w: &Workload, prog: Program) -> vr_core::SimStats {
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::vector(),
        prog,
        w.memory.clone(),
        &w.init_regs,
    );
    sim.run(INSTS)
}

#[test]
fn no_fillers_is_the_same_program() {
    for w in hpcdb_suite(Scale::Test) {
        assert_eq!(pad_loads(&w.program, 0), w.program, "{}", w.name);
        let loads = w.program.insts().iter().filter(|i| i.is_load()).count();
        let padded = pad_loads(&w.program, 3);
        assert_eq!(padded.len(), w.program.len() + 3 * loads, "{}", w.name);
    }
}

#[test]
fn vr_finds_its_striding_load_in_every_padded_layout() {
    let suite: Vec<Workload> = hpcdb_suite(Scale::Test).into_iter().collect();
    let failures: Vec<String> = std::thread::scope(|s| {
        let runs: Vec<_> = suite
            .iter()
            .map(|w| {
                s.spawn(move || {
                    let mut bad = Vec::new();
                    for f in FILLERS {
                        let st = run_vr(w, pad_loads(&w.program, f));
                        if st.vr_batches == 0 || st.vr_no_stride_intervals > MAX_NO_STRIDE {
                            bad.push(format!(
                                "{} F = {f}: vr_batches {}, vr_no_stride_intervals {}",
                                w.name, st.vr_batches, st.vr_no_stride_intervals
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        runs.into_iter().flat_map(|r| r.join().expect("layout run")).collect()
    });
    assert!(failures.is_empty(), "layouts that lost the striding load:\n{}", failures.join("\n"));
}
