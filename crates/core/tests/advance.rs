//! The one branch inside [`Simulator::advance`]: how far a live vector
//! engine may run in one call is decided by whether the core's
//! hierarchy is attached to a chip-shared LLC. The same program is
//! driven through `advance` on an unattached core and on an attached
//! one (a one-core "chip" with a real broker), call by call. A window
//! touches the memory statistics only through the rejected attempts a
//! full MSHR file would have seen, at most one per cycle moved.
//!
//! The fast-forward's trigger clause: a configured runahead trigger
//! refuses a skip only when it could fire inside the window.

use vr_core::{Advance, CoreConfig, RunaheadConfig, Simulator};
use vr_isa::{Asm, Memory, Reg};
use vr_mem::{MemConfig, MemStats, SharedLlc, SharedLlcConfig};
use vr_obs::Counters;
use vr_workloads::graph::GraphPreset;
use vr_workloads::{gap, Scale};

/// A B[A[i]] dependent-load loop over a DRAM-resident table that runs
/// to `halt`, so both cores commit exactly the same instructions
/// whatever their timing.
fn sim() -> Simulator {
    let len = 1u64 << 20;
    let mut mem = Memory::new();
    let mut x = 13u64;
    for i in 0..2048 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        mem.write_u64(0x10_0000 + i * 8, x % len);
    }
    let mut a = Asm::new();
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 2000);
    let top = a.here();
    a.slli(Reg::T2, Reg::T0, 3);
    a.add(Reg::T2, Reg::T2, Reg::A0);
    a.ld(Reg::T3, Reg::T2, 0);
    a.slli(Reg::T3, Reg::T3, 3);
    a.add(Reg::T3, Reg::T3, Reg::A1);
    a.ld(Reg::T4, Reg::T3, 0);
    a.add(Reg::S2, Reg::S2, Reg::T4);
    a.addi(Reg::T0, Reg::T0, 1);
    a.blt(Reg::T0, Reg::T1, top);
    a.halt();
    Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::vector(),
        a.assemble(),
        mem,
        &[(Reg::A0, 0x10_0000), (Reg::A1, 0x4000_0000)],
    )
}

#[derive(Default, Debug)]
struct Census {
    skips: u64,
    engine_steps: u64,
    /// `EngineStepped` calls that moved the clock by more than one
    /// cycle *and* made memory-system accesses.
    multi_cycle_engine_windows: u64,
    /// `EngineStepped` calls that started at or after their episode's
    /// `end_at` (in delayed termination): every cycle they moved was
    /// booked as delayed termination.
    engine_windows_past_end_at: u64,
}

/// `after` differs from `before` at most by rejected load attempts —
/// `demand_loads` and `pf_dropped_mshr`, each up to one per cycle of a
/// `moved`-cycle window.
fn only_rejected_attempts(before: &MemStats, after: &MemStats, moved: u64) -> bool {
    let d = after.delta(before);
    let retries_only = MemStats {
        demand_loads: before.demand_loads,
        pf_dropped_mshr: before.pf_dropped_mshr,
        ..*after
    };
    retries_only == *before && d.demand_loads <= moved && d.pf_dropped_mshr <= moved
}

/// Runs `sim` to `halt` through `advance`, moving `llc` in and out
/// around every call when the core is attached, and checks what each
/// call is allowed to have done.
fn drive(sim: &mut Simulator, mut llc: Option<Box<SharedLlc>>) -> Census {
    let attached = llc.is_some();
    let mut census = Census::default();
    sim.validate().expect("table-1 config is valid");
    while !sim.finished(u64::MAX) {
        let before = sim.seal_stats();
        let (cycle, mem) = (sim.cycle(), before.mem);
        if let Some(llc) = llc.take() {
            sim.install_shared_llc(llc);
        }
        let action = sim.advance().expect("clean run");
        if attached {
            llc = Some(sim.take_shared_llc());
        }
        let moved = sim.cycle() - cycle;
        let after = sim.seal_stats();
        let accessed = after.mem != mem;
        match action {
            Advance::Skipped(to) => {
                census.skips += 1;
                assert_eq!(to, sim.cycle(), "Skipped reports the cycle it reached");
                assert!(moved > 0, "an empty window must tick instead");
                assert!(
                    only_rejected_attempts(&mem, &after.mem, moved),
                    "a skipped window touched the memory system at {cycle}"
                );
            }
            Advance::EngineStepped => {
                census.engine_steps += 1;
                let delayed = after.delayed_termination_stall_cycles
                    - before.delayed_termination_stall_cycles;
                if delayed == moved {
                    census.engine_windows_past_end_at += 1;
                }
                if attached {
                    assert_eq!(moved, 1, "an attached engine ran past one cycle at {cycle}");
                } else if moved > 1 && accessed {
                    census.multi_cycle_engine_windows += 1;
                }
            }
            Advance::Ticked => {
                assert_eq!(moved, 1, "a tick is one cycle");
            }
        }
    }
    census
}

#[test]
fn attachment_alone_decides_how_far_a_vector_engine_runs() {
    let mut free = sim();
    let free_census = drive(&mut free, None);
    assert!(free.seal_stats().vr_batches > 0, "the chain must vectorize");
    assert!(
        free_census.multi_cycle_engine_windows > 0,
        "an unattached core must run its engine through whole windows: {free_census:?}"
    );
    assert!(
        free_census.engine_windows_past_end_at > 0,
        "an unattached core must run delayed termination in engine windows: {free_census:?}"
    );

    let cfg = MemConfig::table1();
    let mut held = sim();
    held.attach_shared_llc(0);
    let llc = Box::new(SharedLlc::new(SharedLlcConfig {
        l3: cfg.l3,
        dram_min_latency: cfg.dram_min_latency,
        dram_cycles_per_line: cfg.dram_cycles_per_line,
        banks: 8,
        bank_service_cycles: 4,
        shared_mshrs: 64,
    }));
    let held_census = drive(&mut held, Some(llc));
    assert!(held.seal_stats().vr_batches > 0, "the chain must vectorize behind a shared LLC too");
    assert!(
        held_census.engine_steps > 0 && held_census.skips > 0,
        "both cheap paths must have run on the attached core: {held_census:?}"
    );

    // Different memory systems, hence different timing, but the same
    // architectural result.
    assert_eq!(free.seal_stats().instructions, held.seal_stats().instructions);
    for r in 0..32 {
        let r = Reg::new(r);
        assert_eq!(free.committed_cpu().x(r), held.committed_cpu().x(r), "{r:?}");
    }
    assert_eq!(free.memory().digest(), held.memory().digest());
}

/// A loop whose ROB head waits on DRAM while a mispredicted branch that
/// depends on the load keeps fetch shut: each iteration loads from a
/// pseudo-random line of a 1 GiB span and branches on the loaded value
/// mixed with the generator state, so the back end never fills and the
/// runahead trigger never fires.
fn dram_wait_behind_mispredict(ra: RunaheadConfig) -> Simulator {
    let mut a = Asm::new();
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 600);
    a.li(Reg::S1, 0x1234_5678_9ABC_DEF1);
    a.li(Reg::S3, 0x5851_F42D_4C95_7F2D);
    let top = a.here();
    let skip = a.label();
    a.mul(Reg::S1, Reg::S1, Reg::S3);
    a.addi(Reg::S1, Reg::S1, 1);
    a.srli(Reg::T2, Reg::S1, 40);
    a.slli(Reg::T2, Reg::T2, 6);
    a.add(Reg::T2, Reg::T2, Reg::A0);
    a.ld(Reg::T4, Reg::T2, 0);
    a.add(Reg::T4, Reg::T4, Reg::S1);
    a.srli(Reg::T4, Reg::T4, 37);
    a.andi(Reg::T4, Reg::T4, 1);
    a.beq(Reg::T4, Reg::ZERO, skip);
    a.addi(Reg::S2, Reg::S2, 1);
    a.bind(skip);
    a.addi(Reg::T0, Reg::T0, 1);
    a.blt(Reg::T0, Reg::T1, top);
    a.halt();
    Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        ra,
        a.assemble(),
        Memory::new(),
        &[(Reg::A0, 0x4000_0000)],
    )
}

/// `[Skipped, EngineStepped, Ticked]` calls of a run to `halt`.
fn advance_counts(sim: &mut Simulator) -> [u64; 3] {
    sim.validate().expect("table-1 config is valid");
    let mut counts = [0; 3];
    while !sim.finished(u64::MAX) {
        let kind = match sim.advance().expect("clean run") {
            Advance::Skipped(_) => 0,
            Advance::EngineStepped => 1,
            Advance::Ticked => 2,
        };
        counts[kind] += 1;
    }
    counts
}

#[test]
fn a_trigger_that_cannot_fire_does_not_stop_the_fast_forward() {
    let mut vr = dram_wait_behind_mispredict(RunaheadConfig::vector());
    let vr_counts = advance_counts(&mut vr);
    let vr_stats = vr.seal_stats();
    assert_eq!(vr_stats.runahead_entries, 0, "the back end never fills: no episode");
    assert!(vr_stats.mem.dram_reads_total() > 500, "the head must wait on DRAM");

    let mut ooo = dram_wait_behind_mispredict(RunaheadConfig::none());
    let ooo_counts = advance_counts(&mut ooo);
    assert_eq!(vr_stats, ooo.seal_stats(), "no episode, so the same run");
    assert_eq!(
        vr_counts, ooo_counts,
        "a configured trigger whose inputs stay false must skip the same DRAM waits"
    );
    assert!(vr_counts[0] >= 50, "the DRAM waits are skipped: {vr_counts:?}");
}

/// The opposite case: a 2-wide core with an 8-entry issue queue keeps
/// filling its back end behind DRAM misses, so the trigger's `full`
/// input flips on the very cycle a window would start. The clause must
/// read the dispatch verdict the skipped ticks would recompute, not
/// only the current `backend_stalled`: these are the statistics of the
/// fast-forward that refused every window behind a DRAM-blocked head
/// under a trigger.
#[test]
fn the_trigger_clause_reads_the_dispatch_verdict() {
    let mut cfg = CoreConfig::table1();
    (cfg.width, cfg.rob, cfg.iq, cfg.frontend_depth) = (2, 48, 8, 3);
    let graph = GraphPreset::Kron.generate(Scale::Test);
    let w = gap::bfs_on(&graph, GraphPreset::Kron);
    let mut sim = Simulator::new(
        cfg,
        MemConfig::table1(),
        RunaheadConfig::vector(),
        w.program,
        w.memory,
        &w.init_regs,
    );
    let s = sim.run(30_000);
    assert_eq!(
        (s.cycles, s.full_rob_stall_cycles, s.runahead_entries, s.runahead_cycles, s.vr_batches),
        (43_655, 8_863, 49, 15_288, 56)
    );
}
