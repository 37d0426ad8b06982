//! Cross-crate integration tests: full workloads through the full
//! timing simulator.

use vr_core::{CoreConfig, RunaheadConfig, RunaheadKind, Simulator};
use vr_isa::Reg;
use vr_mem::MemConfig;
use vr_workloads::{gap, gap_suite, graph, hpcdb, hpcdb_suite, Scale, Workload};

fn simulate(w: &Workload, ra: RunaheadConfig, max_insts: u64) -> vr_core::SimStats {
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        ra,
        w.program.clone(),
        w.memory.clone(),
        &w.init_regs,
    );
    sim.run(max_insts)
}

#[test]
fn all_thirteen_benchmarks_simulate_on_the_baseline() {
    let mut names = Vec::new();
    for w in
        gap_suite(Scale::Test, graph::GraphPreset::Kron).into_iter().chain(hpcdb_suite(Scale::Test))
    {
        let stats = simulate(&w, RunaheadConfig::none(), 150_000);
        assert!(stats.instructions > 10_000, "{}: too few instructions", w.name);
        assert!(stats.ipc() > 0.05, "{}: implausible IPC {:.3}", w.name, stats.ipc());
        assert!(stats.ipc() <= 5.0, "{}: IPC above width", w.name);
        names.push(w.name.clone());
    }
    assert_eq!(names.len(), 13);
}

#[test]
fn simulation_is_deterministic() {
    let w = hpcdb::kangaroo(Scale::Test);
    let a = simulate(&w, RunaheadConfig::vector(), 100_000);
    let b = simulate(&w, RunaheadConfig::vector(), 100_000);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.runahead_entries, b.runahead_entries);
    assert_eq!(a.mem.dram_reads_total(), b.mem.dram_reads_total());
}

/// The timing model must not change architectural results: run BFS to
/// completion under every runahead kind and compare the parent array
/// with the functional reference.
#[test]
fn timing_simulation_preserves_bfs_results() {
    let g = graph::kronecker(8, 8, 77);
    let w = gap::bfs_on(&g, graph::GraphPreset::Kron);
    let (_, ref_mem) = w.run_functional_with_memory(50_000_000).expect("functional run");
    let parent_base = w.init_regs.iter().find(|(r, _)| *r == Reg::A2).unwrap().1;
    let res_base = w.init_regs.iter().find(|(r, _)| *r == Reg::A6).unwrap().1;

    for kind in [RunaheadKind::None, RunaheadKind::Precise, RunaheadKind::Vector] {
        let mut sim = Simulator::new(
            CoreConfig::table1(),
            MemConfig::table1(),
            RunaheadConfig::of(kind),
            w.program.clone(),
            w.memory.clone(),
            &w.init_regs,
        );
        let stats = sim.run(u64::MAX);
        assert!(stats.instructions > 0);
        assert_eq!(
            sim.memory().read_u64(res_base),
            ref_mem.read_u64(res_base),
            "{kind:?}: reached count"
        );
        for i in 0..g.num_nodes() as u64 {
            assert_eq!(
                sim.memory().read_u64(parent_base + 8 * i),
                ref_mem.read_u64(parent_base + 8 * i),
                "{kind:?}: parent[{i}]"
            );
        }
    }
}

/// Technique ordering on a deep-indirection workload at a footprint
/// past the LLC: Oracle ≥ VR > baseline.
#[test]
fn technique_ordering_on_kangaroo() {
    let w = hpcdb::kangaroo(Scale::Paper);
    let budget = 400_000;
    let base = simulate(&w, RunaheadConfig::none(), budget);
    let vr = simulate(&w, RunaheadConfig::vector(), budget);

    let mut oracle_sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1_oracle(),
        RunaheadConfig::none(),
        w.program.clone(),
        w.memory.clone(),
        &w.init_regs,
    );
    let oracle = oracle_sim.run(budget);

    assert!(
        vr.ipc() > base.ipc() * 1.2,
        "VR must speed up kangaroo: base {:.3}, VR {:.3}",
        base.ipc(),
        vr.ipc()
    );
    assert!(
        oracle.ipc() >= vr.ipc() * 0.95,
        "oracle bounds VR from above: oracle {:.3}, VR {:.3}",
        oracle.ipc(),
        vr.ipc()
    );
    assert!(vr.vr_batches > 0);
}

/// PRE cannot prefetch past the first level of indirection, VR can:
/// on a 2-level hash join VR must beat PRE.
#[test]
fn vr_beats_pre_on_deep_indirection() {
    let w = hpcdb::hashjoin(Scale::Paper, 2);
    let budget = 400_000;
    let pre = simulate(&w, RunaheadConfig::of(RunaheadKind::Precise), budget);
    let vr = simulate(&w, RunaheadConfig::vector(), budget);
    assert!(
        vr.ipc() > pre.ipc(),
        "VR must beat PRE on HJ2: PRE {:.3}, VR {:.3}",
        pre.ipc(),
        vr.ipc()
    );
}

/// The always-on stride prefetcher plus IMP covers the simple
/// single-level indirection of NAS-IS reasonably well.
#[test]
fn imp_helps_simple_indirection() {
    let w = hpcdb::nas_is(Scale::Paper);
    let budget = 300_000;
    let base = simulate(&w, RunaheadConfig::none(), budget);

    let mut imp_sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1_with_imp(),
        RunaheadConfig::none(),
        w.program.clone(),
        w.memory.clone(),
        &w.init_regs,
    );
    let imp = imp_sim.run(budget);
    assert!(
        imp.ipc() > base.ipc(),
        "IMP must help NAS-IS: base {:.3}, IMP {:.3}",
        base.ipc(),
        imp.ipc()
    );
    assert!(imp.mem.pf_issued[3] > 0, "IMP must actually issue prefetches");
}

/// Vector-length sensitivity: more lanes must not reduce prefetch
/// coverage on a long streaming indirection.
#[test]
fn more_lanes_give_at_least_as_much_coverage() {
    let w = hpcdb::kangaroo(Scale::Paper);
    let budget = 300_000;
    let run_lanes = |lanes| {
        let ra = RunaheadConfig { vr_lanes: lanes, ..RunaheadConfig::vector() };
        simulate(&w, ra, budget)
    };
    let k16 = run_lanes(16);
    let k64 = run_lanes(64);
    assert!(
        k64.mem.dram_reads_by(vr_mem::Requestor::Runahead)
            >= k16.mem.dram_reads_by(vr_mem::Requestor::Runahead),
        "64 lanes must fetch at least as much as 16"
    );
}

/// IPC converges quickly on these steady-state loop kernels, which is
/// what justifies the scaled-down instruction budgets (DESIGN.md §2).
#[test]
fn ipc_converges_within_small_budgets() {
    let w = hpcdb::hashjoin(Scale::Paper, 2);
    let short = simulate(&w, RunaheadConfig::none(), 150_000);
    let long = simulate(&w, RunaheadConfig::none(), 450_000);
    let rel = (short.ipc() - long.ipc()).abs() / long.ipc();
    assert!(
        rel < 0.15,
        "IPC must be stable across budgets: {:.3} vs {:.3} ({:.1}% apart)",
        short.ipc(),
        long.ipc(),
        rel * 100.0
    );
}
