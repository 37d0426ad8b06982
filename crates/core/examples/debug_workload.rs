//! Developer diagnostic: run one named workload under every technique.
//!
//! Usage: `debug_workload <name> [max_insts]` — names as in
//! `vr-workloads` (Kangaroo, HJ2, …, bfs_KR, …).

use vr_core::{CoreConfig, RunaheadConfig, RunaheadKind, Simulator};
use vr_mem::{HitLevel, MemConfig, Requestor};
use vr_workloads::{gap_suite, graph::GraphPreset, hpcdb_suite, Scale, Workload};

fn find(name: &str) -> Workload {
    let mut all: Vec<Workload> = hpcdb_suite(Scale::Paper).into_iter().collect();
    for p in [GraphPreset::Kron, GraphPreset::Urand] {
        all.extend(gap_suite(Scale::Paper, p));
    }
    all.into_iter().find(|w| w.name == name).unwrap_or_else(|| panic!("unknown workload {name}"))
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Kangaroo".into());
    let insts: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(400_000);
    let w = find(&name);
    println!("workload {name}, budget {insts} insts");
    for (label, ra, mc) in [
        ("base", RunaheadConfig::none(), MemConfig::table1()),
        ("pre", RunaheadConfig::of(RunaheadKind::Precise), MemConfig::table1()),
        ("vr", RunaheadConfig::vector(), MemConfig::table1()),
        ("oracle", RunaheadConfig::none(), MemConfig::table1_oracle()),
    ] {
        let mut sim = Simulator::new(
            CoreConfig::table1(),
            mc,
            ra,
            w.program.clone(),
            w.memory.clone(),
            &w.init_regs,
        );
        let s = sim.run(insts);
        println!(
            "{label:>7}: ipc {:.3} cyc {:>9} mlp {:>5.2} | ra n={} cyc={} stall={} | vrb {} lanes {} inv {} nostride {} | L1 {} L2 {} L3 {} DR {} mrg {} | dram m/ra/st {} {} {} | ra-used/iss {}/{} tl {:?}",
            s.ipc(),
            s.cycles,
            s.mlp(),
            s.runahead_entries,
            s.runahead_cycles,
            s.delayed_termination_stall_cycles,
            s.vr_batches,
            s.vr_lanes_spawned,
            s.vr_lanes_invalidated,
            s.vr_no_stride_intervals,
            s.mem.loads_served_at(HitLevel::L1),
            s.mem.loads_served_at(HitLevel::L2),
            s.mem.loads_served_at(HitLevel::L3),
            s.mem.loads_served_at(HitLevel::Dram),
            s.mem.load_merges,
            s.mem.dram_reads_by(Requestor::Main),
            s.mem.dram_reads_by(Requestor::Runahead),
            s.mem.dram_reads_by(Requestor::Stride),
            s.mem.pf_used[1],
            s.mem.pf_issued[1],
            s.mem.timeliness_fractions().map(|f| (f * 100.0).round()),
        );
    }
}
