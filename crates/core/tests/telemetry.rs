//! Integration tests for the observability layer: episode telemetry
//! under real vector-runahead execution, reconciliation with the
//! `SimStats` counters, annotated pipeline traces, and the
//! zero-overhead contract (stats are bit-identical with telemetry on
//! or off).

use vr_core::{CoreConfig, EpisodeExit, EpisodeKind, RunaheadConfig, SimStats, Simulator};
use vr_isa::{Asm, Memory, Reg};
use vr_mem::MemConfig;

/// A tiny B[A[i]] dependent-load loop over a DRAM-resident table —
/// the access pattern Vector Runahead exists for.
fn indirect_chain() -> (vr_isa::Program, Memory, Vec<(Reg, u64)>) {
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
    (a.assemble(), mem, vec![(Reg::A0, 0x10_0000), (Reg::A1, 0x4000_0000)])
}

fn sim(ra: RunaheadConfig) -> Simulator {
    let (prog, mem, regs) = indirect_chain();
    Simulator::new(CoreConfig::table1(), MemConfig::table1(), ra, prog, mem, &regs)
}

const BUDGET: u64 = 15_000;

fn run_with_telemetry() -> (Simulator, SimStats) {
    let mut s = sim(RunaheadConfig::vector());
    s.enable_trace(BUDGET as usize);
    s.enable_telemetry(4096);
    let stats = s.try_run(BUDGET).expect("run succeeds");
    (s, stats)
}

#[test]
fn episode_totals_reconcile_exactly_with_simstats() {
    let (s, stats) = run_with_telemetry();
    let tel = s.telemetry().expect("telemetry enabled");
    assert!(stats.runahead_entries > 0, "the chain must trigger runahead");
    // Hook coverage: every entered episode either exited (one record,
    // nothing evicted at this budget) or is still open.
    let exited = tel.episodes().count() as u64;
    assert_eq!(
        exited + u64::from(s.episode().is_some()),
        stats.runahead_entries,
        "every entry observed, every exit recorded"
    );
    assert_eq!(tel.duration_hist().count(), exited);
    assert!(tel.episodes().all(|e| e.exit == EpisodeExit::Completed), "no faults injected");
    // An open episode's counters fold into SimStats only at its exit,
    // so the records sum to the run totals exactly.
    let sum = |f: fn(&vr_core::EpisodeRecord) -> u64| tel.episodes().map(f).sum::<u64>();
    assert_eq!(sum(|e| e.batches), stats.vr_batches);
    assert_eq!(sum(|e| e.batches_aborted), stats.vr_batches_aborted);
    assert_eq!(sum(|e| e.lanes_spawned), stats.vr_lanes_spawned);
    assert_eq!(sum(|e| e.lanes_invalidated), stats.vr_lanes_invalidated);
    assert!(stats.vr_batches > 0, "vector episodes execute batches");
    assert!(stats.vr_lanes_spawned > 0, "vector episodes spawn lanes");
}

/// Delayed termination is the part of a coupled episode past its
/// `end_at`, so on a fault-free run that leaves no episode open the
/// closed records account for every delayed-termination cycle.
#[test]
fn delayed_termination_is_the_records_tails_past_end_at() {
    let mut s = sim(RunaheadConfig::vector());
    s.enable_telemetry(4096);
    let stats = s.try_run(u64::MAX).expect("runs to halt");
    assert!(s.episode().is_none(), "the run must leave no episode open");
    let tel = s.telemetry().expect("telemetry enabled");
    assert_eq!(tel.episodes().count() as u64, stats.runahead_entries, "the ring evicted nothing");
    let tails: u64 = tel
        .episodes()
        .filter(|e| !e.episode.decoupled && e.exited_at > e.episode.end_at)
        .map(|e| e.exited_at - e.episode.end_at)
        .sum();
    assert!(tails > 0, "the chain must run into delayed termination");
    assert_eq!(tails, stats.delayed_termination_stall_cycles);
}

#[test]
fn episode_records_are_vector_kind_and_well_formed() {
    let (s, stats) = run_with_telemetry();
    let tel = s.telemetry().expect("telemetry enabled");
    let mut last_exit = 0u64;
    for e in tel.episodes() {
        assert_eq!(e.episode.kind, EpisodeKind::Vector);
        assert_eq!(e.exit, EpisodeExit::Completed);
        assert!(!e.episode.decoupled, "plain VR triggers at the stalled ROB head");
        assert!(e.episode.entered_at <= e.exited_at);
        assert!(e.episode.entered_at >= last_exit, "episodes never overlap");
        last_exit = e.exited_at;
        assert!(e.exited_at <= stats.cycles);
        assert!(e.lanes_spawned >= e.lanes_invalidated);
    }
}

#[test]
fn trace_is_well_ordered_and_flags_records_inside_an_episode() {
    let (s, _stats) = run_with_telemetry();
    let trace = s.trace().expect("trace enabled");
    assert!(trace.is_well_ordered(), "stage timestamps must be monotone");
    let tel = s.telemetry().expect("telemetry enabled");
    let episodes: Vec<(u64, u64)> =
        tel.episodes().map(|e| (e.episode.entered_at, e.exited_at)).collect();
    assert!(!episodes.is_empty());
    // At least one committed instruction's in-flight span overlaps a
    // runahead episode (the blocked ROB head itself always does).
    let overlapping = trace
        .records()
        .filter(|r| episodes.iter().any(|&(a, b)| r.fetch_at <= b && a <= r.commit_at))
        .count();
    assert!(overlapping > 0, "no trace record overlaps an episode");
    let rendered = trace.render_annotated(&episodes);
    assert!(rendered.contains("== runahead episode ["), "missing separator:\n{rendered}");
    assert!(rendered.contains("<RA>"), "missing in-episode flag:\n{rendered}");
}

#[test]
fn stats_are_bit_identical_with_telemetry_on_or_off() {
    // The zero-overhead contract: the tracker only observes
    // transitions the simulator already performs, so enabling it must
    // not perturb a single counter.
    let mut plain = sim(RunaheadConfig::vector());
    let base = plain.try_run(BUDGET).expect("run succeeds");
    let (_, with_tel) = run_with_telemetry();
    assert_eq!(base, with_tel, "telemetry must not change simulation results");
}
