//! Golden chip-stats differential test: pins the lockstep chip's
//! per-core and chip-level statistics on fixed N ∈ {2, 4} points, the
//! same regression armor `core/tests/golden_stats.rs` gives the
//! single-core simulator.
//!
//! The constants were captured from the PR 9 chip (pre chip-level
//! fast-forward, pre LLC de-mutexing). Every chip performance change
//! — fast-forward windows, broker ownership, parallel stepping — must
//! leave these numbers **bit-identical**: we may change how fast the
//! chip simulates, never what it simulates. Run both with and without
//! `--features checked` (CI does).

use vr_chip::{Chip, ChipConfig, ChipStats, CoreSlot};
use vr_core::{CoreConfig, RunaheadConfig, SimStats, Simulator};
use vr_isa::Reg;
use vr_mem::{HitLevel, MemConfig, MemStats, Requestor};
use vr_workloads::{gap, graph::GraphPreset, Scale};

const BUDGET: u64 = 20_000;

/// Per-core pin: the same field set the single-core golden suite uses
/// (everything the paper's figures consume), plus the committed
/// x-register digest as an architectural cross-check.
#[derive(Debug, PartialEq, Eq)]
struct CoreFingerprint {
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
    reg_digest: u64,
}

fn fingerprint(stats: &SimStats, sim: &Simulator) -> CoreFingerprint {
    let mut reg_digest = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..32 {
        reg_digest =
            (reg_digest ^ sim.committed_cpu().x(Reg::new(i))).wrapping_mul(0x0000_0100_0000_01B3);
    }
    CoreFingerprint {
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

fn slot(ra: RunaheadConfig) -> CoreSlot {
    let graph = GraphPreset::Kron.generate(Scale::Test);
    let w = gap::bfs_on(&graph, GraphPreset::Kron);
    CoreSlot { ra, program: w.program, memory: w.memory, init_regs: w.init_regs }
}

/// Runs one golden chip point and compares per-core fingerprints and
/// the chip aggregate, printing the actuals first so a mismatch is
/// diagnosable (and new goldens are harvestable from `--nocapture`).
fn check(label: &str, slots: Vec<CoreSlot>, expect_cores: &[CoreFingerprint], expect: &ChipStats) {
    let n = slots.len();
    let mut chip =
        Chip::new(ChipConfig::with_cores(n), CoreConfig::table1(), MemConfig::table1(), slots);
    let run = chip.try_run(BUDGET).expect("golden chip point must run clean");
    for (i, s) in run.per_core.iter().enumerate() {
        println!("// {label} core {i}\n{:?}", fingerprint(s, chip.core(i)));
    }
    println!("// {label} chip\n{:?}", run.chip);
    for (i, want) in expect_cores.iter().enumerate() {
        let got = fingerprint(&run.per_core[i], chip.core(i));
        assert_eq!(&got, want, "golden chip stats drifted on {label} core {i}");
    }
    assert_eq!(&run.chip, expect, "golden chip aggregate drifted on {label}");
}

#[test]
fn golden_chip_n2_homog_vector() {
    check(
        "n2/homog-vr",
        (0..2).map(|_| slot(RunaheadConfig::vector())).collect(),
        &[
            CoreFingerprint {
                instructions: 20004,
                cycles: 33700,
                full_rob_stall_cycles: 2733,
                commit_stall_cycles: 27686,
                branches: 3646,
                mispredicts: 380,
                runahead_entries: 8,
                runahead_cycles: 2862,
                vr_batches: 8,
                vr_lanes_spawned: 512,
                mshr_occupancy_integral: 119200,
                dram_loads: 777,
                l1_loads: 3309,
                pf_issued_ra: 145,
                pf_used_ra: 64,
                dram_reads_total: 478,
                reg_digest: 18030273617011519076,
            },
            CoreFingerprint {
                instructions: 20004,
                cycles: 33843,
                full_rob_stall_cycles: 2802,
                commit_stall_cycles: 27828,
                branches: 3646,
                mispredicts: 380,
                runahead_entries: 8,
                runahead_cycles: 2917,
                vr_batches: 8,
                vr_lanes_spawned: 512,
                mshr_occupancy_integral: 122398,
                dram_loads: 798,
                l1_loads: 3301,
                pf_issued_ra: 145,
                pf_used_ra: 64,
                dram_reads_total: 478,
                reg_digest: 18030273617011519076,
            },
        ],
        &ChipStats {
            cycles: 33843,
            bank_conflicts: 6,
            arbitration_stall_cycles: 224,
            shared_mshr_rejections: 0,
            llc_hits: 0,
            llc_misses: 956,
            dram_writebacks: 0,
        },
    );
}

#[test]
fn golden_chip_n4_mixed_placement() {
    check(
        "n4/mixed",
        vec![
            slot(RunaheadConfig::vector()),
            slot(RunaheadConfig::none()),
            slot(RunaheadConfig::vector()),
            slot(RunaheadConfig::none()),
        ],
        &[
            CoreFingerprint {
                instructions: 20004,
                cycles: 33725,
                full_rob_stall_cycles: 2759,
                commit_stall_cycles: 27726,
                branches: 3646,
                mispredicts: 380,
                runahead_entries: 8,
                runahead_cycles: 2888,
                vr_batches: 8,
                vr_lanes_spawned: 512,
                mshr_occupancy_integral: 119762,
                dram_loads: 783,
                l1_loads: 3303,
                pf_issued_ra: 145,
                pf_used_ra: 64,
                dram_reads_total: 478,
                reg_digest: 18030273617011519076,
            },
            CoreFingerprint {
                instructions: 20004,
                cycles: 37211,
                full_rob_stall_cycles: 1679,
                commit_stall_cycles: 31374,
                branches: 3646,
                mispredicts: 380,
                runahead_entries: 0,
                runahead_cycles: 0,
                vr_batches: 0,
                vr_lanes_spawned: 0,
                mshr_occupancy_integral: 103404,
                dram_loads: 961,
                l1_loads: 2733,
                pf_issued_ra: 0,
                pf_used_ra: 0,
                dram_reads_total: 422,
                reg_digest: 18030273617011519076,
            },
            CoreFingerprint {
                instructions: 20004,
                cycles: 33855,
                full_rob_stall_cycles: 2765,
                commit_stall_cycles: 27851,
                branches: 3646,
                mispredicts: 380,
                runahead_entries: 8,
                runahead_cycles: 2892,
                vr_batches: 8,
                vr_lanes_spawned: 512,
                mshr_occupancy_integral: 121264,
                dram_loads: 783,
                l1_loads: 3303,
                pf_issued_ra: 145,
                pf_used_ra: 64,
                dram_reads_total: 478,
                reg_digest: 18030273617011519076,
            },
            CoreFingerprint {
                instructions: 20004,
                cycles: 37342,
                full_rob_stall_cycles: 1686,
                commit_stall_cycles: 31514,
                branches: 3646,
                mispredicts: 380,
                runahead_entries: 0,
                runahead_cycles: 0,
                vr_batches: 0,
                vr_lanes_spawned: 0,
                mshr_occupancy_integral: 103693,
                dram_loads: 962,
                l1_loads: 2732,
                pf_issued_ra: 0,
                pf_used_ra: 0,
                dram_reads_total: 422,
                reg_digest: 18030273617011519076,
            },
        ],
        &ChipStats {
            cycles: 37342,
            bank_conflicts: 29,
            arbitration_stall_cycles: 305,
            shared_mshr_rejections: 0,
            llc_hits: 0,
            llc_misses: 1800,
            dram_writebacks: 0,
        },
    );
}
