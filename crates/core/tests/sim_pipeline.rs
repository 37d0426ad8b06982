//! End-to-end tests of the out-of-order pipeline model.

use vr_core::{CoreConfig, RunaheadConfig, RunaheadKind, SimStats, Simulator};
use vr_isa::{Asm, Memory, Program, Reg};
use vr_mem::MemConfig;

fn sum_loop(n: i64) -> Program {
    let mut a = Asm::new();
    a.li(Reg::T0, 0); // i
    a.li(Reg::T1, 0); // sum
    a.li(Reg::T2, n);
    let top = a.here();
    a.add(Reg::T1, Reg::T1, Reg::T0);
    a.addi(Reg::T0, Reg::T0, 1);
    a.blt(Reg::T0, Reg::T2, top);
    a.st(Reg::T1, Reg::A0, 0);
    a.halt();
    a.assemble()
}

/// A dependent pointer-chase over a shuffled permutation array:
/// `i = P[i]` repeated — every load depends on the previous one.
fn pointer_chase(len: u64, hops: i64) -> (Program, Memory) {
    let mut mem = Memory::new();
    // P[i] = (i + large_odd_step) % len gives a full cycle with
    // cache-unfriendly jumps for large len.
    let base = 0x100_0000u64;
    let step = (714_025 % len) | 1;
    for i in 0..len {
        mem.write_u64(base + i * 8, (i + step) % len);
    }
    let mut a = Asm::new();
    a.li(Reg::A0, base as i64);
    a.li(Reg::T0, 0); // current index
    a.li(Reg::T1, 0); // hop counter
    a.li(Reg::T2, hops);
    let top = a.here();
    a.slli(Reg::T3, Reg::T0, 3);
    a.add(Reg::T3, Reg::T3, Reg::A0);
    a.ld(Reg::T0, Reg::T3, 0); // i = P[i]
    a.addi(Reg::T1, Reg::T1, 1);
    a.blt(Reg::T1, Reg::T2, top);
    a.halt();
    (a.assemble(), mem)
}

#[test]
fn arithmetic_loop_commits_correct_result() {
    let prog = sum_loop(100);
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        prog,
        Memory::new(),
        &[(Reg::A0, 0x9000)],
    );
    let stats = sim.run(1_000_000);
    assert_eq!(sim.memory().read_u64(0x9000), 4950);
    // 3 + 100·3 + 2 instructions.
    assert_eq!(stats.instructions, 3 + 300 + 2);
    assert!(stats.cycles > 0);
}

#[test]
fn ipc_of_independent_alu_work_approaches_width() {
    // 4000 independent ALU ops (no branches): the 5-wide core is
    // limited by its 4 integer ALUs, so IPC should approach ~4.
    let mut a = Asm::new();
    for i in 0..4000 {
        a.addi(Reg::new((5 + (i % 20)) as u8), Reg::ZERO, i);
    }
    a.halt();
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        a.assemble(),
        Memory::new(),
        &[],
    );
    let stats = sim.run(1_000_000);
    let ipc = stats.ipc();
    assert!(ipc > 3.0, "independent ALU IPC should be near 4, got {ipc:.2}");
    assert!(ipc <= 5.0, "IPC cannot exceed machine width, got {ipc:.2}");
}

#[test]
fn dependent_chain_limits_ipc_to_one() {
    // A serial dependence chain of 1-cycle adds: IPC ≤ 1.
    let mut a = Asm::new();
    a.li(Reg::T0, 0);
    for _ in 0..3000 {
        a.addi(Reg::T0, Reg::T0, 1);
    }
    a.halt();
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        a.assemble(),
        Memory::new(),
        &[],
    );
    let stats = sim.run(1_000_000);
    let ipc = stats.ipc();
    assert!(ipc <= 1.05, "serial chain cannot exceed IPC 1, got {ipc:.2}");
    assert!(ipc > 0.8, "serial add chain should sustain ~1 IPC, got {ipc:.2}");
}

#[test]
fn pointer_chase_is_memory_bound_and_stalls_the_rob() {
    let (prog, mem) = pointer_chase(1 << 18, 4000); // 2 MB array
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        prog,
        mem,
        &[],
    );
    let stats = sim.run(1_000_000);
    assert!(
        stats.ipc() < 0.5,
        "a DRAM-latency pointer chase must be slow, got IPC {:.2}",
        stats.ipc()
    );
    assert!(stats.mem.demand_loads > 3000);
}

#[test]
fn mispredicted_branches_cost_cycles() {
    // A branch whose direction is a pseudo-random function of a
    // counter: hard to predict.
    let mut a = Asm::new();
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 12_000);
    a.li(Reg::T5, 0);
    a.li(Reg::S0, 0x5851_f42d_4c95_7f2d); // LCG multiplier
    a.li(Reg::S1, 0x1405_7b7e_f767_814f); // LCG increment
    a.li(Reg::S2, 1); // LCG state
    let top = a.here();
    a.mul(Reg::S2, Reg::S2, Reg::S0);
    a.add(Reg::S2, Reg::S2, Reg::S1);
    a.srli(Reg::T4, Reg::S2, 63);
    let skip = a.label();
    a.beq(Reg::T4, Reg::ZERO, skip);
    a.addi(Reg::T5, Reg::T5, 1);
    a.bind(skip);
    a.addi(Reg::T0, Reg::T0, 1);
    a.blt(Reg::T0, Reg::T1, top);
    a.halt();

    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        a.assemble(),
        Memory::new(),
        &[],
    );
    let stats = sim.run(1_000_000);
    assert!(stats.branches >= 12_000, "both branches commit");
    assert!(stats.mispredicts > 1000, "a random branch must mispredict ~50%");
    // The loop-closing branch is trivially predictable, so the rate
    // should still be well under 50%.
    assert!(stats.mispredict_rate() < 0.5);
}

#[test]
fn store_load_forwarding_keeps_serial_store_load_fast() {
    // store x → load x → +1 → store x … strictly serial through memory.
    let mut a = Asm::new();
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 0);
    a.li(Reg::T2, 2000);
    let top = a.here();
    a.st(Reg::T1, Reg::A0, 0);
    a.ld(Reg::T1, Reg::A0, 0);
    a.addi(Reg::T1, Reg::T1, 1);
    a.addi(Reg::T0, Reg::T0, 1);
    a.blt(Reg::T0, Reg::T2, top);
    a.halt();
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        a.assemble(),
        Memory::new(),
        &[(Reg::A0, 0x5000)],
    );
    let stats = sim.run(1_000_000);
    assert_eq!(sim.memory().read_u64(0x5000), 1999);
    // With forwarding the loop iterates in ~6 cycles; without, every
    // load would pay an L1 round trip after the store drains.
    assert!(stats.ipc() > 0.5, "forwarding should keep IPC up, got {:.2}", stats.ipc());
}

/// `B[A[i]]` with sequential A and a large, randomly-indexed B:
/// iterations are mutually independent, so the IQ drains and the ROB
/// fills behind LLC-missing loads — the paper's trigger scenario.
fn indirect_stream(len: u64, iters: i64) -> (Program, Memory) {
    let a_base = 0x100_0000u64;
    let b_base = 0x800_0000u64;
    let mut mem = Memory::new();
    let mut x = 88172645463325252u64;
    for i in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        mem.write_u64(a_base + i * 8, x % len);
    }
    let mut asm = Asm::new();
    asm.li(Reg::A0, a_base as i64);
    asm.li(Reg::A1, b_base as i64);
    asm.li(Reg::T0, 0);
    asm.li(Reg::T1, iters);
    let top = asm.here();
    asm.slli(Reg::T2, Reg::T0, 3);
    asm.add(Reg::T2, Reg::T2, Reg::A0);
    asm.ld(Reg::T3, Reg::T2, 0); // A[i] (striding)
    asm.slli(Reg::T3, Reg::T3, 3);
    asm.add(Reg::T3, Reg::T3, Reg::A1);
    asm.ld(Reg::T4, Reg::T3, 0); // B[A[i]] (random)
    asm.addi(Reg::T0, Reg::T0, 1);
    asm.blt(Reg::T0, Reg::T1, top);
    asm.halt();
    (asm.assemble(), mem)
}

#[test]
fn classic_runahead_triggers_on_rob_stall() {
    let (prog, mem) = indirect_stream(1 << 18, 3000);
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::of(RunaheadKind::Classic),
        prog,
        mem,
        &[],
    );
    let stats = sim.run(1_000_000);
    assert!(stats.runahead_entries > 0, "pointer chase must trigger runahead");
    assert!(stats.runahead_cycles > 0);
}

#[test]
fn runahead_kinds_preserve_architectural_results() {
    let kinds =
        [RunaheadKind::None, RunaheadKind::Classic, RunaheadKind::Precise, RunaheadKind::Vector];
    let mut finals = Vec::new();
    for kind in kinds {
        let prog = sum_loop(257);
        let mut sim = Simulator::new(
            CoreConfig::table1(),
            MemConfig::table1(),
            RunaheadConfig::of(kind),
            prog,
            Memory::new(),
            &[(Reg::A0, 0x9000)],
        );
        let stats = sim.run(1_000_000);
        finals.push((sim.memory().read_u64(0x9000), stats.instructions));
    }
    for w in finals.windows(2) {
        assert_eq!(w[0], w[1], "runahead must never change architectural results");
    }
    assert_eq!(finals[0].0, 257 * 256 / 2);
}

#[test]
fn full_rob_stall_fraction_grows_with_smaller_rob() {
    let (prog, mem) = pointer_chase(1 << 18, 2500);
    let mut fractions = Vec::new();
    for rob in [64, 350] {
        let mut sim = Simulator::new(
            CoreConfig::with_rob(rob),
            MemConfig::table1(),
            RunaheadConfig::none(),
            prog.clone(),
            mem.clone(),
            &[],
        );
        let stats = sim.run(1_000_000);
        fractions.push(stats.full_rob_stall_fraction());
    }
    assert!(
        fractions[0] >= fractions[1],
        "smaller ROB must stall at least as often: {fractions:?}"
    );
}

#[test]
fn oracle_memory_is_an_upper_bound() {
    let (prog, mem) = pointer_chase(1 << 16, 2000);
    let mut base = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        prog.clone(),
        mem.clone(),
        &[],
    );
    let b = base.run(1_000_000);
    let mut oracle = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1_oracle(),
        RunaheadConfig::none(),
        prog,
        mem,
        &[],
    );
    let o = oracle.run(1_000_000);
    assert!(
        o.ipc() > b.ipc() * 2.0,
        "oracle must be far faster on a pointer chase: {:.3} vs {:.3}",
        o.ipc(),
        b.ipc()
    );
}

/// Hash-join-shaped kernel: a striding index load followed by `depth`
/// dependent random levels, with xorshift-style hashing (ALU work)
/// between levels — the workload class the paper evaluates.
fn hash_chain(len: u64, iters: i64, depth: usize) -> (Program, Memory) {
    let a_base = 0x100_0000u64;
    let b_base = 0x4000_0000u64;
    let mut mem = Memory::new();
    let mut x = 88172645463325252u64;
    let mut rnd = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..len {
        mem.write_u64(a_base + i * 8, rnd() % len);
    }
    for i in 0..len {
        mem.write_u64(b_base + i * 8, rnd() % len);
    }
    let mut asm = Asm::new();
    asm.li(Reg::A0, a_base as i64);
    asm.li(Reg::A1, b_base as i64);
    asm.li(Reg::T0, 0);
    asm.li(Reg::T1, iters);
    let top = asm.here();
    asm.slli(Reg::T2, Reg::T0, 3);
    asm.add(Reg::T2, Reg::T2, Reg::A0);
    asm.ld(Reg::T3, Reg::T2, 0); // A[i] (striding)
    for _ in 0..depth {
        asm.slli(Reg::T4, Reg::T3, 13);
        asm.xor(Reg::T3, Reg::T3, Reg::T4);
        asm.srli(Reg::T4, Reg::T3, 7);
        asm.xor(Reg::T3, Reg::T3, Reg::T4);
        asm.slli(Reg::T4, Reg::T3, 17);
        asm.xor(Reg::T3, Reg::T3, Reg::T4);
        asm.andi(Reg::T3, Reg::T3, (len - 1) as i64);
        asm.slli(Reg::T3, Reg::T3, 3);
        asm.add(Reg::T3, Reg::T3, Reg::A1);
        asm.ld(Reg::T3, Reg::T3, 0);
    }
    asm.addi(Reg::T0, Reg::T0, 1);
    asm.blt(Reg::T0, Reg::T1, top);
    asm.halt();
    (asm.assemble(), mem)
}

#[test]
fn vector_runahead_speeds_up_indirect_streams() {
    let (prog, mem) = hash_chain(1 << 19, 20_000, 2); // 4 MB A, 4 MB B
    let run = |ra: RunaheadConfig| {
        let mut sim = Simulator::new(
            CoreConfig::table1(),
            MemConfig::table1(),
            ra,
            prog.clone(),
            mem.clone(),
            &[],
        );
        sim.run(1_000_000)
    };
    let base = run(RunaheadConfig::none());
    let vr = run(RunaheadConfig::vector());
    assert!(vr.runahead_entries > 0, "VR must trigger");
    assert!(vr.vr_batches > 0, "VR must vectorize batches");
    assert!(vr.vr_lanes_spawned > 0);
    let speedup = vr.speedup_over(&base);
    assert!(
        speedup > 1.3,
        "VR should clearly beat the baseline on B[A[i]], got {speedup:.2}x \
         (base IPC {:.3}, VR IPC {:.3})",
        base.ipc(),
        vr.ipc()
    );
    // And VR's MLP must exceed the baseline's.
    assert!(
        vr.mlp() > base.mlp(),
        "VR must overlap more misses: {:.2} vs {:.2}",
        vr.mlp(),
        base.mlp()
    );
}

#[test]
fn halt_terminates_and_max_insts_bounds_runs() {
    let prog = sum_loop(1_000_000);
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        prog,
        Memory::new(),
        &[(Reg::A0, 0x9000)],
    );
    let stats = sim.run(10_000);
    assert!(stats.instructions >= 10_000);
    assert!(stats.instructions < 10_200, "run must stop promptly at the budget");
}

#[test]
fn roi_stats_exclude_the_warmup_region() {
    let (prog, mem) = hash_chain(1 << 18, 20_000, 1);
    let mut cold = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        prog.clone(),
        mem.clone(),
        &[],
    );
    let cold_stats = cold.run(50_000);

    let mut warm = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        prog,
        mem,
        &[],
    );
    let roi = warm.run_roi(50_000, 50_000);
    assert_eq!(roi.instructions, 50_000);
    assert!(roi.cycles > 0);
    // The warm ROI has trained predictors/prefetchers: it must not be
    // slower than the cold region that includes training.
    assert!(
        roi.ipc() >= cold_stats.ipc() * 0.9,
        "warm ROI {:.3} vs cold {:.3}",
        roi.ipc(),
        cold_stats.ipc()
    );
    // Delta arithmetic must be internally consistent.
    assert!(roi.mem.demand_loads <= roi.instructions);
    assert!(roi.full_rob_stall_cycles <= roi.cycles);
}

#[test]
fn returns_are_predicted_by_the_ras() {
    // A hot function called in a loop: after warmup, jal/jalr pairs
    // must be fully predicted (no indirect-target mispredicts beyond
    // the conditional-branch ones).
    let mut a = Asm::new();
    let func = a.label();
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 5_000);
    let top = a.here();
    a.jal(Reg::RA, func); // call
    a.addi(Reg::T0, Reg::T0, 1);
    a.blt(Reg::T0, Reg::T1, top);
    a.halt();
    a.bind(func);
    a.addi(Reg::S2, Reg::S2, 1);
    a.jalr(Reg::ZERO, Reg::RA, 0); // return
    let prog = a.assemble();

    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        prog,
        Memory::new(),
        &[],
    );
    let stats = sim.run(1_000_000);
    // 5 instructions per iteration; with well-predicted returns IPC
    // should stay respectable despite a call+return every iteration.
    assert!(
        stats.ipc() > 1.0,
        "RAS-predicted returns should keep the call loop fast, got {:.2}",
        stats.ipc()
    );
}

#[test]
fn indirect_jumps_without_history_pay_a_redirect() {
    // A jalr whose target is data-dependent and alternates: the BTB
    // keeps mispredicting one of the two targets, costing cycles
    // relative to a fixed-target version.
    let alternating = {
        let mut a = Asm::new();
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 4_000);
        let t_a = a.label();
        let t_b = a.label();
        let top = a.here(); // 2
        a.andi(Reg::T2, Reg::T0, 1); // parity
        a.slli(Reg::T2, Reg::T2, 2); // 0 or 4
        a.addi(Reg::T3, Reg::T2, 7); // target index 7 or 11
        a.jalr(Reg::T4, Reg::T3, 0); // data-dependent indirect jump
        a.halt(); // never reached (6)
        a.bind(t_a); // 7
        a.addi(Reg::T0, Reg::T0, 1); // 7
        a.addi(Reg::S3, Reg::S3, 1);
        a.blt(Reg::T0, Reg::T1, top); // 9
        a.halt(); // 10
        a.bind(t_b); // 11
        a.addi(Reg::T0, Reg::T0, 1);
        a.addi(Reg::S4, Reg::S4, 1);
        a.blt(Reg::T0, Reg::T1, top);
        a.halt();
        let _ = (t_a, t_b);
        a.assemble()
    };
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::none(),
        alternating,
        Memory::new(),
        &[],
    );
    let s = sim.run(1_000_000);
    assert!(
        s.ipc() < 2.0,
        "alternating indirect targets must pay redirects, got IPC {:.2}",
        s.ipc()
    );
    assert!(s.instructions > 10_000);
}

/// A counted loop over `body`, which sees: the store/load address in
/// `A0` (advanced one cache line per iteration, so a load that does not
/// forward pays a cold miss); early data in `T1`; late data in `T4`,
/// the result of an unpipelined divide of the previous iteration's
/// loaded value (`T6`, which every body loads) — the oldest instruction
/// of its iteration, so the iteration's stores stay in flight
/// (un-committed) while its loads issue, and a load's latency is on the
/// critical path; and in `T3` a copy of `A0` ready two cycles after
/// `T1` — when a store of `T1` has executed.
fn forwarding_kernel(body: impl Fn(&mut Asm)) -> Program {
    let mut a = Asm::new();
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 1);
    a.li(Reg::T2, 300);
    a.li(Reg::T5, 3);
    let top = a.here();
    a.divu(Reg::T4, Reg::T6, Reg::T5);
    a.and(Reg::T3, Reg::T1, Reg::ZERO);
    a.add(Reg::T3, Reg::T3, Reg::A0);
    body(&mut a);
    a.addi(Reg::T1, Reg::T1, 1);
    a.addi(Reg::A0, Reg::A0, 64);
    a.addi(Reg::T0, Reg::T0, 1);
    a.blt(Reg::T0, Reg::T2, top);
    a.halt();
    a.assemble()
}

/// [`indirect_stream`] with a store and a same-address reload in every
/// iteration: under Vector Runahead each episode exit flushes a ROB
/// full of in-flight stores, so the forwarding state is rebuilt from
/// the surviving head over and over.
fn indirect_stream_with_stores(len: u64, iters: i64) -> (Program, Memory) {
    let (a_base, b_base, c_base) = (0x100_0000u64, 0x800_0000u64, 0x4000u64);
    let (_, mem) = indirect_stream(len, iters); // the same A[] image
    let mut asm = Asm::new();
    asm.li(Reg::A0, a_base as i64);
    asm.li(Reg::A1, b_base as i64);
    asm.li(Reg::A2, c_base as i64);
    asm.li(Reg::T0, 0);
    asm.li(Reg::T1, iters);
    let top = asm.here();
    asm.slli(Reg::T2, Reg::T0, 3);
    asm.add(Reg::T2, Reg::T2, Reg::A0);
    asm.ld(Reg::T3, Reg::T2, 0); // A[i] (striding)
    asm.andi(Reg::T5, Reg::T0, 0x1f8);
    asm.add(Reg::T5, Reg::T5, Reg::A2);
    asm.st(Reg::T3, Reg::T5, 0); // C[(i / 8) % 64] = A[i]
    asm.slli(Reg::T3, Reg::T3, 3);
    asm.add(Reg::T3, Reg::T3, Reg::A1);
    asm.ld(Reg::T4, Reg::T3, 0); // B[A[i]] (random)
    asm.ldw(Reg::T6, Reg::T5, 0); // reload the low half of that slot
    asm.addi(Reg::T0, Reg::T0, 1);
    asm.blt(Reg::T0, Reg::T1, top);
    asm.halt();
    (asm.assemble(), mem)
}

/// Store-to-load forwarding, decision by decision. Values are computed
/// at fetch, so a wrong forward is architecturally invisible: only the
/// cycle count and the number of loads that reached the hierarchy
/// (`demand_loads` — a forwarded load makes no access) can tell. Both
/// were pinned on the per-load ROB walk the in-flight store ring
/// replaced.
#[test]
fn forwarding_decisions_are_pinned_cycle_exact() {
    struct Case {
        name: &'static str,
        program: Program,
        memory: Memory,
        kind: RunaheadKind,
        cycles: u64,
        demand_loads: u64,
    }
    let kernel = |name, body: &dyn Fn(&mut Asm), cycles, demand_loads| Case {
        name,
        program: forwarding_kernel(body),
        memory: Memory::new(),
        kind: RunaheadKind::None,
        cycles,
        demand_loads,
    };
    let (vr_program, vr_memory) = indirect_stream_with_stores(1 << 18, 3000);
    let cases = [
        kernel(
            "a wider store covers a narrower load",
            &|a| {
                a.st(Reg::T1, Reg::A0, 0);
                a.ldw(Reg::T6, Reg::T3, 0);
            },
            5419,
            0,
        ),
        kernel(
            "a narrower store does not cover a wider load",
            &|a| {
                a.stw(Reg::T1, Reg::A0, 0);
                a.ld(Reg::T6, Reg::T3, 0);
            },
            5645,
            544,
        ),
        kernel(
            "the nearest covering store decides, done or not",
            &|a| {
                a.st(Reg::T1, Reg::A0, 0);
                a.st(Reg::T4, Reg::A0, 0); // nearest, waits on the divide
                a.ld(Reg::T6, Reg::T3, 0);
            },
            5646,
            544,
        ),
        kernel(
            "a nearer store that does not cover is passed over",
            &|a| {
                a.st(Reg::T1, Reg::A0, 0);
                a.stb(Reg::T4, Reg::A0, 0); // nearest, but one byte
                a.ld(Reg::T6, Reg::T3, 0);
            },
            5420,
            0,
        ),
        kernel(
            "a store that has not executed does not forward",
            &|a| {
                a.st(Reg::T4, Reg::A0, 0);
                a.ld(Reg::T6, Reg::T3, 0);
            },
            5646,
            544,
        ),
        Case {
            name: "vector-runahead flushes rebuild the in-flight stores",
            program: vr_program,
            memory: vr_memory,
            kind: RunaheadKind::Vector,
            cycles: 43_803,
            demand_loads: 12_959,
        },
    ];
    for case in cases {
        let mut sim = Simulator::new(
            CoreConfig::table1(),
            MemConfig::table1(),
            RunaheadConfig::of(case.kind),
            case.program,
            case.memory,
            &[(Reg::A0, 0x10_0000)],
        );
        let stats = sim.run(1_000_000);
        println!(
            "{}: cycles {}, demand_loads {}, episodes {}",
            case.name, stats.cycles, stats.mem.demand_loads, stats.runahead_entries
        );
        if case.kind == RunaheadKind::Vector {
            assert!(stats.runahead_entries > 20, "{}: expected a flush-heavy run", case.name);
        }
        assert_eq!(
            (stats.cycles, stats.mem.demand_loads),
            (case.cycles, case.demand_loads),
            "{}",
            case.name
        );
    }
}

/// FNV-1a over the `Debug` rendering of the statistics: every field,
/// the nested memory statistics included.
fn stats_fnv(stats: &SimStats) -> u64 {
    format!("{stats:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `validate()` accepts a 0-cycle functional-unit latency, which
/// schedules a completion event for the current cycle *after* that
/// cycle's events were drained; it pops one tick later. Pinned on the
/// plain binary heap the completion queue replaced.
#[test]
fn zero_latency_alu_keeps_its_statistics() {
    let mut cfg = CoreConfig::table1();
    cfg.lat.int_alu = 0;
    let (prog, mem) = indirect_stream_with_stores(1 << 16, 2000);
    for (kind, cycles, fnv) in [
        (RunaheadKind::None, 41_067u64, 0x79d7_b053_bdf8_6e42u64),
        (RunaheadKind::Vector, 28_444, 0xae5c_5380_4d4d_6603),
    ] {
        let mut sim = Simulator::new(
            cfg.clone(),
            MemConfig::table1(),
            RunaheadConfig::of(kind),
            prog.clone(),
            mem.clone(),
            &[],
        );
        let stats = sim.run(1_000_000);
        println!("{kind:?}: cycles {}, fnv {:#x}", stats.cycles, stats_fnv(&stats));
        assert_eq!((stats.cycles, stats_fnv(&stats)), (cycles, fnv), "{kind:?}");
    }
}
