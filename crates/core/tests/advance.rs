//! The one branch inside [`Simulator::advance`]: how far a live vector
//! engine may run in one call is decided by whether the core's
//! hierarchy is attached to a chip-shared LLC. The same program is
//! driven through `advance` on an unattached core and on an attached
//! one (a one-core "chip" with a real broker), call by call.

use vr_core::{Advance, CoreConfig, RunaheadConfig, Simulator};
use vr_isa::{Asm, Memory, Reg};
use vr_mem::{MemConfig, SharedLlc, SharedLlcConfig};

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
}

/// Runs `sim` to `halt` through `advance`, moving `llc` in and out
/// around every call when the core is attached, and checks what each
/// call is allowed to have done.
fn drive(sim: &mut Simulator, mut llc: Option<Box<SharedLlc>>) -> Census {
    let attached = llc.is_some();
    let mut census = Census::default();
    sim.validate().expect("table-1 config is valid");
    while !sim.finished(u64::MAX) {
        let (cycle, mem) = (sim.cycle(), sim.seal_stats().mem);
        if let Some(llc) = llc.take() {
            sim.install_shared_llc(llc);
        }
        let action = sim.advance().expect("clean run");
        if attached {
            llc = Some(sim.take_shared_llc());
        }
        let moved = sim.cycle() - cycle;
        let accessed = sim.seal_stats().mem != mem;
        match action {
            Advance::Skipped(to) => {
                census.skips += 1;
                assert_eq!(to, sim.cycle(), "Skipped reports the cycle it reached");
                assert!(moved > 0, "an empty window must tick instead");
                assert!(!accessed, "a skipped window touched the memory system at {cycle}");
            }
            Advance::EngineStepped => {
                census.engine_steps += 1;
                if attached {
                    assert_eq!(moved, 1, "an attached engine ran past one cycle at {cycle}");
                } else if moved > 1 && accessed {
                    census.multi_cycle_engine_windows += 1;
                }
            }
            Advance::Ticked => assert_eq!(moved, 1, "a tick is one cycle"),
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
