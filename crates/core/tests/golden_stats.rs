//! Golden-stats differential test: pins the simulator's reported
//! statistics on a fixed matrix of (workload × technique) points.
//!
//! The constants below were captured from the pre-optimization
//! simulator (the "seed" behaviour). Every performance-engineering
//! change to the scheduler, the memory hierarchy, or the idle-cycle
//! fast-forward path must leave these numbers **bit-identical**: the
//! optimizations are allowed to change how fast we simulate, never
//! what we simulate. Run both with and without `--features checked`
//! (CI does).

use vr_core::{CoreConfig, RunaheadConfig, RunaheadKind, SimStats, Simulator};
use vr_isa::Reg;
use vr_mem::{HitLevel, MemConfig, MemStats, Requestor};
use vr_workloads::{gap, graph::GraphPreset, Scale, Workload};

const BUDGET: u64 = 40_000;

/// The stats fields a run is pinned on: everything the paper's
/// figures consume (cycle counts, commit counts, stall accounting,
/// runahead activity, and prefetch accuracy/coverage counters).
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    instructions: u64,
    cycles: u64,
    full_rob_stall_cycles: u64,
    commit_stall_cycles: u64,
    branches: u64,
    mispredicts: u64,
    runahead_entries: u64,
    runahead_cycles: u64,
    vr_batches: u64,
    vr_lanes_spawned: u64,
    mshr_occupancy_integral: u64,
    dram_loads: u64,
    l1_loads: u64,
    pf_issued_ra: u64,
    pf_used_ra: u64,
    dram_reads_total: u64,
    /// Committed x-register digest (architectural cross-check).
    reg_digest: u64,
}

fn fingerprint(stats: &SimStats, sim: &Simulator) -> Fingerprint {
    let mut reg_digest = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..32 {
        reg_digest =
            (reg_digest ^ sim.committed_cpu().x(Reg::new(i))).wrapping_mul(0x0000_0100_0000_01B3);
    }
    Fingerprint {
        instructions: stats.instructions,
        cycles: stats.cycles,
        full_rob_stall_cycles: stats.full_rob_stall_cycles,
        commit_stall_cycles: stats.commit_stall_cycles,
        branches: stats.branches,
        mispredicts: stats.mispredicts,
        runahead_entries: stats.runahead_entries,
        runahead_cycles: stats.runahead_cycles,
        vr_batches: stats.vr_batches,
        vr_lanes_spawned: stats.vr_lanes_spawned,
        mshr_occupancy_integral: stats.mshr_occupancy_integral,
        dram_loads: stats.mem.loads_served_at(HitLevel::Dram),
        l1_loads: stats.mem.loads_served_at(HitLevel::L1),
        pf_issued_ra: stats.mem.pf_issued[MemStats::req_idx(Requestor::Runahead)],
        pf_used_ra: stats.mem.pf_used[MemStats::req_idx(Requestor::Runahead)],
        dram_reads_total: stats.mem.dram_reads_total(),
        reg_digest,
    }
}

fn run_point(w: &Workload, kind: RunaheadKind) -> Fingerprint {
    let ra = match kind {
        RunaheadKind::None => RunaheadConfig::none(),
        RunaheadKind::Vector => RunaheadConfig::vector(),
        k => RunaheadConfig::of(k),
    };
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        ra,
        w.program.clone(),
        w.memory.clone(),
        &w.init_regs,
    );
    let stats = sim.try_run(BUDGET).expect("golden point must run clean");
    fingerprint(&stats, &sim)
}

struct Golden {
    preset: GraphPreset,
    kind: RunaheadKind,
    expect: Fingerprint,
}

/// One golden point: run and compare, printing the actual fingerprint
/// first so a mismatch is diagnosable (and new goldens are harvestable
/// from `--nocapture` output).
fn check(g: &Golden) {
    let graph = g.preset.generate(Scale::Test);
    let w = gap::bfs_on(&graph, g.preset);
    let got = run_point(&w, g.kind);
    println!("// {:?} {:?}\n{:?}", g.preset, g.kind, got);
    assert_eq!(got, g.expect, "golden stats drifted on {:?}/{:?}", g.preset, g.kind);
}

#[test]
fn golden_bfs_kron_no_runahead() {
    check(&Golden {
        preset: GraphPreset::Kron,
        kind: RunaheadKind::None,
        expect: Fingerprint {
            instructions: 40000,
            cycles: 61802,
            full_rob_stall_cycles: 4316,
            commit_stall_cycles: 50907,
            branches: 7572,
            mispredicts: 619,
            runahead_entries: 0,
            runahead_cycles: 0,
            vr_batches: 0,
            vr_lanes_spawned: 0,
            mshr_occupancy_integral: 164415,
            dram_loads: 1802,
            l1_loads: 5955,
            pf_issued_ra: 0,
            pf_used_ra: 0,
            dram_reads_total: 676,
            reg_digest: 7198178889232601213,
        },
    });
}

#[test]
fn golden_bfs_kron_classic_runahead() {
    check(&Golden {
        preset: GraphPreset::Kron,
        kind: RunaheadKind::Classic,
        expect: Fingerprint {
            instructions: 40000,
            cycles: 58749,
            full_rob_stall_cycles: 3502,
            commit_stall_cycles: 47623,
            branches: 7572,
            mispredicts: 619,
            runahead_entries: 43,
            runahead_cycles: 3467,
            vr_batches: 0,
            vr_lanes_spawned: 0,
            mshr_occupancy_integral: 164400,
            dram_loads: 1917,
            l1_loads: 7729,
            pf_issued_ra: 53,
            pf_used_ra: 53,
            dram_reads_total: 676,
            reg_digest: 7198178889232601213,
        },
    });
}

#[test]
fn golden_bfs_kron_vector_runahead() {
    check(&Golden {
        preset: GraphPreset::Kron,
        kind: RunaheadKind::Vector,
        expect: Fingerprint {
            instructions: 40000,
            cycles: 52328,
            full_rob_stall_cycles: 5732,
            commit_stall_cycles: 40821,
            branches: 7572,
            mispredicts: 619,
            runahead_entries: 24,
            runahead_cycles: 5845,
            vr_batches: 24,
            vr_lanes_spawned: 1536,
            mshr_occupancy_integral: 168356,
            dram_loads: 1231,
            l1_loads: 7930,
            pf_issued_ra: 234,
            pf_used_ra: 222,
            dram_reads_total: 677,
            reg_digest: 7198178889232601213,
        },
    });
}

#[test]
fn golden_bfs_urand_no_runahead() {
    check(&Golden {
        preset: GraphPreset::Urand,
        kind: RunaheadKind::None,
        expect: Fingerprint {
            instructions: 40000,
            cycles: 67109,
            full_rob_stall_cycles: 3255,
            commit_stall_cycles: 55593,
            branches: 7386,
            mispredicts: 878,
            runahead_entries: 0,
            runahead_cycles: 0,
            vr_batches: 0,
            vr_lanes_spawned: 0,
            mshr_occupancy_integral: 172592,
            dram_loads: 1430,
            l1_loads: 6300,
            pf_issued_ra: 0,
            pf_used_ra: 0,
            dram_reads_total: 700,
            reg_digest: 7467811890302669665,
        },
    });
}

#[test]
fn golden_bfs_urand_classic_runahead() {
    check(&Golden {
        preset: GraphPreset::Urand,
        kind: RunaheadKind::Classic,
        expect: Fingerprint {
            instructions: 40000,
            cycles: 66149,
            full_rob_stall_cycles: 2912,
            commit_stall_cycles: 54215,
            branches: 7386,
            mispredicts: 878,
            runahead_entries: 27,
            runahead_cycles: 2885,
            vr_batches: 0,
            vr_lanes_spawned: 0,
            mshr_occupancy_integral: 172325,
            dram_loads: 1382,
            l1_loads: 7681,
            pf_issued_ra: 36,
            pf_used_ra: 36,
            dram_reads_total: 700,
            reg_digest: 7467811890302669665,
        },
    });
}

#[test]
fn golden_bfs_urand_vector_runahead() {
    check(&Golden {
        preset: GraphPreset::Urand,
        kind: RunaheadKind::Vector,
        expect: Fingerprint {
            instructions: 40000,
            cycles: 48145,
            full_rob_stall_cycles: 7267,
            commit_stall_cycles: 36233,
            branches: 7386,
            mispredicts: 878,
            runahead_entries: 32,
            runahead_cycles: 7235,
            vr_batches: 28,
            vr_lanes_spawned: 1792,
            mshr_occupancy_integral: 175758,
            dram_loads: 1100,
            l1_loads: 8424,
            pf_issued_ra: 214,
            pf_used_ra: 165,
            dram_reads_total: 701,
            reg_digest: 7467811890302669665,
        },
    });
}
