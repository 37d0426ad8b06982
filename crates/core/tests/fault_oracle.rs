//! The architectural-invisibility oracle.
//!
//! Runahead — classic or vector — is *microarchitectural* speculation:
//! whatever happens inside an episode, the committed register file,
//! the memory image and the retired-instruction count must be
//! bit-identical to a run with runahead disabled. This harness
//! stress-tests that contract with the seeded [`FaultPlan`] chaos
//! levers (episode aborts, lane poisoning, forced early exits,
//! dropped/delayed prefetches) and compares every run differentially
//! against the no-runahead baseline.

use vr_core::{CoreConfig, FaultPlan, RunaheadConfig, RunaheadKind, SimStats, Simulator};
use vr_isa::Reg;
use vr_mem::MemConfig;
use vr_workloads::{gap, graph, hpcdb, Scale, Workload};

/// Architectural fingerprint of a completed run: retired instructions,
/// all 32 committed integer registers, and an order-independent digest
/// of the final memory image.
#[derive(PartialEq, Eq, Debug)]
struct ArchState {
    instructions: u64,
    regs: [u64; 32],
    mem_digest: u64,
}

fn run_to_halt(w: &Workload, ra: RunaheadConfig) -> (SimStats, ArchState) {
    let mut sim = Simulator::new(
        // Tiny caches make Test-scale inputs miss the LLC constantly,
        // so runahead triggers (and the fault plan fires) thousands of
        // times per run.
        CoreConfig::table1(),
        MemConfig::tiny_for_tests(),
        ra,
        w.program.clone(),
        w.memory.clone(),
        &w.init_regs,
    );
    let stats = sim.try_run(u64::MAX).expect("workload halts cleanly");
    let mut regs = [0u64; 32];
    for (i, r) in regs.iter_mut().enumerate() {
        *r = sim.committed_cpu().x(Reg::new(i as u8));
    }
    let arch =
        ArchState { instructions: stats.instructions, regs, mem_digest: sim.memory().digest() };
    (stats, arch)
}

fn workloads() -> Vec<Workload> {
    vec![
        hpcdb::kangaroo(Scale::Test),
        hpcdb::hashjoin(Scale::Test, 2),
        gap::bfs_on(&graph::kronecker(7, 8, 21), graph::GraphPreset::Kron),
        // The Test-scale Kronecker graph the quick figures run on.
        gap::bfs_on(&graph::GraphPreset::Kron.generate(Scale::Test), graph::GraphPreset::Kron),
    ]
}

/// Fault-free runs of every runahead kind match the baseline exactly.
#[test]
fn runahead_is_architecturally_invisible() {
    for w in workloads() {
        let (_, baseline) = run_to_halt(&w, RunaheadConfig::none());
        for kind in [RunaheadKind::Classic, RunaheadKind::Precise, RunaheadKind::Vector] {
            let (_, arch) = run_to_halt(&w, RunaheadConfig::of(kind));
            assert_eq!(arch, baseline, "{}: {kind:?} changed architectural state", w.name);
        }
    }
}

/// Fault-injected runs still match the baseline exactly: aborting
/// episodes, poisoning lanes, forcing early exits and perturbing
/// prefetches may change *timing*, never *results*.
#[test]
fn fault_injection_is_architecturally_invisible() {
    for w in workloads() {
        let (_, baseline) = run_to_halt(&w, RunaheadConfig::none());
        for kind in [RunaheadKind::Classic, RunaheadKind::Vector] {
            for seed in [1u64, 2, 3, 0xDEAD_BEEF] {
                let ra = RunaheadConfig {
                    fault_plan: Some(FaultPlan::chaos(seed)),
                    ..RunaheadConfig::of(kind)
                };
                let (stats, arch) = run_to_halt(&w, ra);
                assert_eq!(
                    arch, baseline,
                    "{}: {kind:?} under FaultPlan::chaos({seed}) leaked into \
                     architectural state",
                    w.name
                );
                assert!(
                    stats.faults_injected + stats.mem.pf_dropped_fault + stats.mem.pf_delayed_fault
                        > 0,
                    "{}: {kind:?} chaos({seed}) injected no faults — the oracle \
                     is not exercising anything",
                    w.name
                );
                assert_eq!(stats.mem.spec_stores, 0, "{}: containment violated", w.name);
            }
        }
    }
}

/// A hostile plan (every lever at high probability) on top of every
/// extension flag at once — the worst-case configuration still cannot
/// corrupt committed state.
#[test]
fn hostile_plan_with_all_extensions_is_invisible() {
    let w = hpcdb::kangaroo(Scale::Test);
    let (_, baseline) = run_to_halt(&w, RunaheadConfig::none());
    let ra = RunaheadConfig {
        eager_trigger: true,
        termination_slack: Some(64),
        vir_pipelining: false,
        fault_plan: Some(FaultPlan {
            seed: 99,
            abort_episode: 0.05,
            poison_lanes: 0.2,
            drop_prefetch: 0.3,
            delay_prefetch: 0.3,
            force_early_exit: 0.05,
        }),
        ..RunaheadConfig::vector()
    };
    let (stats, arch) = run_to_halt(&w, ra);
    assert_eq!(arch, baseline, "hostile plan leaked into architectural state");
    assert!(stats.faults_injected > 0);
}

/// The fault schedule is a pure function of the seed: identical plans
/// reproduce identical cycle counts and fault counts.
#[test]
fn fault_plans_are_deterministic() {
    let w = hpcdb::kangaroo(Scale::Test);
    let ra =
        || RunaheadConfig { fault_plan: Some(FaultPlan::chaos(7)), ..RunaheadConfig::vector() };
    let (a, _) = run_to_halt(&w, ra());
    let (b, _) = run_to_halt(&w, ra());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.runahead_aborts, b.runahead_aborts);
    assert_eq!(a.mem.pf_dropped_fault, b.mem.pf_dropped_fault);
    assert_eq!(a.mem.pf_delayed_fault, b.mem.pf_delayed_fault);

    // A different seed yields a different schedule (overwhelmingly).
    let rc = RunaheadConfig { fault_plan: Some(FaultPlan::chaos(8)), ..RunaheadConfig::vector() };
    let (c, _) = run_to_halt(&w, rc);
    assert!(
        c.cycles != a.cycles || c.faults_injected != a.faults_injected,
        "different seeds should perturb the schedule"
    );
}
