//! Structured-error behaviour: the watchdog's deadlock dump, bad
//! configurations, and workload (program) faults all surface as typed
//! [`SimError`]s from `try_run` — and as panics carrying the same
//! message from the legacy `run` wrapper.

use std::time::{Duration, Instant};

use vr_core::{CoreConfig, RunaheadConfig, SimError, Simulator};
use vr_isa::{Asm, Memory, Program, Reg};
use vr_mem::MemConfig;

fn dram_miss_program() -> (Program, Memory) {
    let mut a = Asm::new();
    a.li(Reg::A0, 0x10_000);
    a.ld(Reg::T0, Reg::A0, 0); // cold miss: ~242 cycles in tiny config
    a.ld(Reg::T1, Reg::A0, 4096); // second cold miss
    a.halt();
    (a.assemble(), Memory::new())
}

fn sim_with_watchdog(prog: Program, mem: Memory, watchdog: u64) -> Simulator {
    let cfg = CoreConfig { watchdog, ..CoreConfig::table1() };
    Simulator::new(cfg, MemConfig::tiny_for_tests(), RunaheadConfig::none(), prog, mem, &[])
}

#[test]
fn tight_watchdog_returns_deadlock_with_dump() {
    let (prog, mem) = dram_miss_program();
    // A DRAM miss stalls commit for ~242 cycles; a 60-cycle watchdog
    // fires mid-stall (any real deadlock looks exactly like this,
    // forever).
    let err = sim_with_watchdog(prog, mem, 60).try_run(u64::MAX).unwrap_err();
    let SimError::Deadlock(dump) = err else {
        panic!("expected Deadlock, got {err}");
    };
    assert_eq!(dump.watchdog, 60);
    assert!(dump.cycle - dump.last_commit_cycle >= 60);
    assert_eq!(dump.rob_cap, 350);
    assert!(!dump.halted);
    // The stalled load sits at (or near) the ROB head, issued but not
    // complete.
    let head = dump.oldest.as_ref().expect("rob is not empty");
    assert!(head.inst.contains("Ld"), "head should be the blocked load: {}", head.inst);
    // The dump renders as a readable multi-line report.
    let text = SimError::Deadlock(dump).to_string();
    assert!(text.contains("no commit progress"));
    assert!(text.contains("rob "));
    assert!(text.contains("mshr outstanding"));
}

#[test]
fn default_watchdog_does_not_fire_on_legitimate_stalls() {
    let (prog, mem) = dram_miss_program();
    let stats = sim_with_watchdog(prog, mem, 1_000_000).try_run(u64::MAX).expect("halts");
    assert_eq!(stats.instructions, 4);
}

#[test]
#[should_panic(expected = "no commit progress")]
fn legacy_run_panics_with_the_dump_message() {
    let (prog, mem) = dram_miss_program();
    sim_with_watchdog(prog, mem, 60).run(u64::MAX);
}

#[test]
fn tripped_stop_flag_returns_deadline_with_dump() {
    let (prog, mem) = dram_miss_program();
    let mut sim = sim_with_watchdog(prog, mem, 1_000_000);
    // Already past: the run stops at its first tick with the same
    // diagnostic snapshot the watchdog would take.
    sim.set_deadline(Instant::now());
    let err = sim.try_run(u64::MAX).unwrap_err();
    let SimError::Deadline(dump) = err else {
        panic!("expected Deadline, got {err}");
    };
    assert_eq!(dump.rob_cap, 350, "deadline carries the full scheduler snapshot");
    assert_eq!(dump.cycle, 1, "a deadline already past stops the first tick");
    let text = SimError::Deadline(dump).to_string();
    assert!(text.contains("wall-clock deadline expired"));
}

#[test]
fn untripped_stop_flag_changes_nothing() {
    let (prog, mem) = dram_miss_program();
    let baseline =
        sim_with_watchdog(prog.clone(), mem.clone(), 1_000_000).try_run(u64::MAX).expect("halts");
    let mut sim = sim_with_watchdog(prog, mem, 1_000_000);
    sim.set_deadline(Instant::now() + Duration::from_secs(3600));
    let armed = sim.try_run(u64::MAX).expect("halts");
    assert_eq!(armed, baseline, "an armed deadline that never expires must not perturb stats");
}

#[test]
fn stop_flag_tripped_from_another_thread_stops_a_long_run() {
    // A long straight-line loop workload: without a deadline this runs
    // for a large budget; one a few milliseconds out stops it
    // mid-flight, with no second thread involved.
    let mut a = Asm::new();
    a.li(Reg::A0, 0x10_000);
    let top = a.here();
    a.ld(Reg::T0, Reg::A0, 0);
    a.addi(Reg::T1, Reg::T1, 1);
    a.j(top);
    let prog = a.assemble();
    let mut sim = sim_with_watchdog(prog, Memory::new(), 1_000_000);
    sim.set_deadline(Instant::now() + Duration::from_millis(30));
    let err = sim.try_run(u64::MAX).unwrap_err();
    assert!(matches!(err, SimError::Deadline(_)), "got {err}");
}

#[test]
fn zero_width_is_a_bad_config() {
    let mut a = Asm::new();
    a.halt();
    let cfg = CoreConfig { width: 0, ..CoreConfig::table1() };
    let err = Simulator::new(
        cfg,
        MemConfig::tiny_for_tests(),
        RunaheadConfig::none(),
        a.assemble(),
        Memory::new(),
        &[],
    )
    .try_run(10)
    .unwrap_err();
    assert!(matches!(err, SimError::BadConfig { .. }), "got {err}");
}

#[test]
fn zero_watchdog_is_a_bad_config() {
    let mut a = Asm::new();
    a.halt();
    let cfg = CoreConfig { watchdog: 0, ..CoreConfig::table1() };
    let err = Simulator::new(
        cfg,
        MemConfig::tiny_for_tests(),
        RunaheadConfig::none(),
        a.assemble(),
        Memory::new(),
        &[],
    )
    .try_run(10)
    .unwrap_err();
    let SimError::BadConfig { what } = err else { panic!("expected BadConfig, got {err}") };
    assert!(what.contains("watchdog"));
}

#[test]
fn over_wide_vector_lanes_are_a_bad_config() {
    // The engine is built in `new`; a lane count past the lane masks'
    // capacity must still surface as a typed error, not a panic.
    let mut a = Asm::new();
    a.halt();
    let ra = RunaheadConfig { vr_lanes: 1 << 20, ..RunaheadConfig::vector() };
    let err = Simulator::new(
        CoreConfig::table1(),
        MemConfig::tiny_for_tests(),
        ra,
        a.assemble(),
        Memory::new(),
        &[],
    )
    .try_run(10)
    .unwrap_err();
    let SimError::BadConfig { what } = err else { panic!("expected BadConfig, got {err}") };
    assert!(what.contains("lane-mask"), "{what}");
}

#[test]
fn runaway_program_is_a_program_fault() {
    // No halt: fetch runs off the end of the program.
    let mut a = Asm::new();
    a.li(Reg::T0, 1);
    a.li(Reg::T1, 2);
    let err = Simulator::new(
        CoreConfig::table1(),
        MemConfig::tiny_for_tests(),
        RunaheadConfig::none(),
        a.assemble(),
        Memory::new(),
        &[],
    )
    .try_run(u64::MAX)
    .unwrap_err();
    let SimError::Program { pc, .. } = err else { panic!("expected Program, got {err}") };
    assert_eq!(pc, 2, "fault pc is one past the last instruction");
}
