//! Property-style tests of the functional emulator.
//!
//! These were originally written with `proptest`; the workspace now
//! builds fully offline, so they run as seeded loops over
//! `vr_isa::SplitMix64` instead. Determinism is a feature: a failure
//! reproduces identically on every platform from the case index.

use vr_isa::{Cpu, Inst, Memory, Op, Program, Reg, RegRef, SplitMix64, StoreOverlay, Width};

const ALU_OPS: &[Op] = &[
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Divu,
    Op::Remu,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Sll,
    Op::Srl,
    Op::Sra,
    Op::Slt,
    Op::Sltu,
    Op::Min,
    Op::Minu,
];

const IMM_OPS: &[Op] = &[
    Op::Addi,
    Op::Andi,
    Op::Ori,
    Op::Xori,
    Op::Slli,
    Op::Srli,
    Op::Srai,
    Op::Slti,
    Op::Sltiu,
    Op::Li,
];

const MEM_OPS: &[Op] = &[
    Op::Ld(Width::D),
    Op::Ld(Width::W),
    Op::Ld(Width::B),
    Op::St(Width::D),
    Op::St(Width::W),
    Op::St(Width::B),
];

/// Generates a random straight-line (branch-free,
/// memory-address-confined) instruction.
fn arb_inst(rng: &mut SplitMix64) -> Inst {
    let reg = |rng: &mut SplitMix64| rng.below(32) as u8;
    match rng.below(3) {
        0 => {
            let op = ALU_OPS[rng.below(ALU_OPS.len() as u64) as usize];
            Inst { op, rd: reg(rng), rs1: reg(rng), rs2: reg(rng), imm: 0 }
        }
        1 => {
            let op = IMM_OPS[rng.below(IMM_OPS.len() as u64) as usize];
            Inst { op, rd: reg(rng), rs1: reg(rng), rs2: 0, imm: rng.range_i64(-1000, 1000) }
        }
        // Memory ops: rs1 is forced to x0 so addresses stay within
        // imm's small range — keeps the flat-memory oracle cheap.
        _ => {
            let op = MEM_OPS[rng.below(MEM_OPS.len() as u64) as usize];
            Inst { op, rd: reg(rng), rs1: 0, rs2: reg(rng), imm: rng.range_i64(0, 4096) }
        }
    }
}

/// A random straight-line program of `1..=max_len` instructions,
/// terminated with `Halt`.
fn arb_program(rng: &mut SplitMix64, max_len: u64) -> Program {
    let len = rng.range(1, max_len + 1);
    let mut insts: Vec<Inst> = (0..len).map(|_| arb_inst(rng)).collect();
    insts.push(Inst { op: Op::Halt, ..Inst::NOP });
    Program::new(insts)
}

fn run_arch(prog: &Program) -> (Cpu, Memory) {
    let mut cpu = Cpu::new();
    let mut mem = Memory::new();
    while !cpu.halted() {
        cpu.step(prog, &mut mem).expect("straight-line program stays in bounds");
    }
    (cpu, mem)
}

/// Architectural execution is deterministic: two runs of the same
/// program produce identical register files and memory effects.
#[test]
fn emulator_is_deterministic() {
    let mut rng = SplitMix64::new(0xE41D_0001);
    for case in 0..96 {
        let prog = arb_program(&mut rng, 60);
        let (cpu1, mem1) = run_arch(&prog);
        let (cpu2, mem2) = run_arch(&prog);
        for i in 0..32 {
            assert_eq!(cpu1.x(Reg::new(i)), cpu2.x(Reg::new(i)), "case {case} reg {i}");
        }
        for a in (0..4096u64).step_by(8) {
            assert_eq!(mem1.read_u64(a), mem2.read_u64(a), "case {case} addr {a:#x}");
        }
    }
}

/// The zero register reads as zero at every point in execution.
#[test]
fn zero_register_never_changes() {
    let mut rng = SplitMix64::new(0xE41D_0002);
    for case in 0..96 {
        let prog = arb_program(&mut rng, 60);
        let mut cpu = Cpu::new();
        let mut mem = Memory::new();
        while !cpu.halted() {
            cpu.step(&prog, &mut mem).unwrap();
            assert_eq!(cpu.x(Reg::ZERO), 0, "case {case}");
        }
    }
}

/// Speculative execution (stores into an overlay) computes the same
/// register results as architectural execution and never mutates
/// memory.
#[test]
fn speculative_matches_architectural() {
    let mut rng = SplitMix64::new(0xE41D_0003);
    for case in 0..96 {
        let prog = arb_program(&mut rng, 60);
        let (arch_cpu, _) = run_arch(&prog);

        let mem = Memory::new();
        let mut spec_cpu = Cpu::new();
        let mut overlay = StoreOverlay::new();
        while !spec_cpu.halted() {
            spec_cpu.step_spec(&prog, &mem, &mut overlay).unwrap();
        }
        for i in 0..32 {
            assert_eq!(arch_cpu.x(Reg::new(i)), spec_cpu.x(Reg::new(i)), "case {case} reg {i}");
        }
        assert_eq!(mem.mapped_pages(), 0, "speculative run must not touch memory");
    }
}

/// Every step report is self-consistent with the static dataflow
/// metadata of the instruction.
#[test]
fn step_reports_match_static_dataflow() {
    let mut rng = SplitMix64::new(0xE41D_0004);
    for case in 0..96 {
        let prog = arb_program(&mut rng, 40);
        let mut cpu = Cpu::new();
        let mut mem = Memory::new();
        while !cpu.halted() {
            let s = cpu.step(&prog, &mut mem).unwrap();
            if let Some(w) = s.write {
                assert_eq!(Some(w.reg), s.inst.dst(), "case {case}");
                if let RegRef::Int(r) = w.reg {
                    assert_eq!(cpu.x(r), w.value, "case {case}");
                }
            }
            if let Some(m) = s.mem {
                assert_eq!(m.is_store, s.inst.is_store(), "case {case}");
                assert_eq!(Some(m.width), s.inst.mem_width(), "case {case}");
            } else {
                assert!(!s.inst.is_load() && !s.inst.is_store(), "case {case}");
            }
        }
    }
}
