//! Property-style integration tests: the timing simulator is
//! architecturally transparent and deterministic for arbitrary
//! programs. Run as seeded loops over `vr_isa::SplitMix64` (the
//! workspace builds offline, so no `proptest`).

use vr_core::{CoreConfig, RunaheadConfig, RunaheadKind, Simulator};
use vr_isa::{Cpu, Inst, Memory, Op, Program, Reg, SplitMix64, Width};
use vr_mem::MemConfig;

/// Random terminating programs: straight-line ALU/memory blocks with
/// occasional *forward* branches (guaranteeing termination), ending in
/// a halt.
fn arb_program(rng: &mut SplitMix64) -> Program {
    // avoid x0 as destination for more dataflow
    let reg = |rng: &mut SplitMix64| rng.range(1, 32) as u8;
    let width =
        |rng: &mut SplitMix64| [Width::B, Width::H, Width::W, Width::D][rng.below(4) as usize];
    let len = rng.range(4, 120) as usize;
    let mut insts: Vec<Inst> = (0..len)
        .map(|_| match rng.below(7) {
            0 => Inst { op: Op::Add, rd: reg(rng), rs1: reg(rng), rs2: reg(rng), imm: 0 },
            1 => Inst { op: Op::Mul, rd: reg(rng), rs1: reg(rng), rs2: reg(rng), imm: 0 },
            2 => Inst { op: Op::Xor, rd: reg(rng), rs1: reg(rng), rs2: reg(rng), imm: 0 },
            3 => Inst {
                op: Op::Addi,
                rd: reg(rng),
                rs1: reg(rng),
                rs2: 0,
                imm: rng.range_i64(-64, 64),
            },
            4 => Inst { op: Op::Li, rd: reg(rng), rs1: 0, rs2: 0, imm: rng.range_i64(0, 4096) },
            // Mixed widths over the same 512 slots, so an in-flight
            // store may cover a later load of its slot, fall short of
            // it, or be the nearer of two that do.
            5 => Inst {
                op: Op::Ld(width(rng)),
                rd: reg(rng),
                rs1: 0,
                rs2: 0,
                imm: rng.range_i64(0, 512) * 8,
            },
            _ => Inst {
                op: Op::St(width(rng)),
                rd: 0,
                rs1: 0,
                rs2: reg(rng),
                imm: rng.range_i64(0, 512) * 8,
            },
        })
        .collect();
    // Sprinkle a few forward conditional branches.
    for (i, inst) in insts.iter_mut().enumerate().take(len.saturating_sub(2)) {
        if rng.chance(0.08) {
            let target = rng.range(i as u64 + 1, len as u64) as i64;
            *inst = Inst {
                op: if rng.flip() { Op::Beq } else { Op::Bltu },
                rd: 0,
                rs1: rng.below(32) as u8,
                rs2: rng.below(32) as u8,
                imm: target,
            };
        }
    }
    insts.push(Inst { op: Op::Halt, ..Inst::NOP });
    Program::new(insts)
}

fn run_functional(prog: &Program) -> (Cpu, Memory) {
    let mut cpu = Cpu::new();
    let mut mem = Memory::new();
    while !cpu.halted() {
        cpu.step(prog, &mut mem).expect("forward branches keep pc in bounds");
    }
    (cpu, mem)
}

/// The timing simulator commits exactly the functional execution:
/// identical final registers and memory, for every runahead kind.
#[test]
fn simulator_is_architecturally_transparent() {
    let mut rng = SplitMix64::new(0x51A_0001);
    for case in 0..48 {
        let prog = arb_program(&mut rng);
        let (ref_cpu, ref_mem) = run_functional(&prog);
        for kind in [RunaheadKind::None, RunaheadKind::Classic, RunaheadKind::Vector] {
            let mut sim = Simulator::new(
                CoreConfig::table1(),
                MemConfig::tiny_for_tests(),
                RunaheadConfig::of(kind),
                prog.clone(),
                Memory::new(),
                &[],
            );
            let stats = sim.run(u64::MAX);
            assert_eq!(stats.instructions, ref_cpu.retired(), "case {case} kind {kind:?}");
            // Final committed register state must equal the functional
            // reference (architectural ground truth).
            for i in 0..32u8 {
                assert_eq!(
                    sim.committed_cpu().x(Reg::new(i)),
                    ref_cpu.x(Reg::new(i)),
                    "case {case} kind {kind:?} reg x{i}"
                );
            }
            for a in (0..4096u64).step_by(8) {
                assert_eq!(
                    sim.memory().read_u64(a),
                    ref_mem.read_u64(a),
                    "case {case} kind {kind:?} addr {a:#x}"
                );
            }
        }
    }
}

/// Cycle counts are deterministic and at least
/// ⌈instructions / width⌉.
#[test]
fn cycle_counts_are_deterministic_and_bounded() {
    let mut rng = SplitMix64::new(0x51A_0002);
    for case in 0..48 {
        let prog = arb_program(&mut rng);
        let run = || {
            let mut sim = Simulator::new(
                CoreConfig::table1(),
                MemConfig::tiny_for_tests(),
                RunaheadConfig::none(),
                prog.clone(),
                Memory::new(),
                &[],
            );
            sim.run(u64::MAX)
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles, "case {case}");
        assert!(a.cycles as f64 >= a.instructions as f64 / 5.0, "case {case}");
        // Front-end depth is a hard lower bound on latency.
        assert!(a.cycles >= 15, "case {case}");
    }
}
