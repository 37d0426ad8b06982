//! Every prefetch ends exactly one way: used by a demand access,
//! evicted from the core's caches unused, or still resident unused.
//! `Simulator::seal_stats` asserts that law per requestor on every
//! run; this test drives it over every technique of the paper's
//! headline figure on two graphs, and over a 2-core chip whose L2
//! victims leave for a shared LLC. It checks what the law implies
//! (`pf_used <= pf_issued`) and that both unused outcomes actually
//! occur, so the law is not vacuous.

use vr_core::{CoreConfig, RunaheadConfig, RunaheadKind, SimStats, Simulator};
use vr_mem::{MemConfig, SharedLlc, SharedLlcConfig};
use vr_workloads::graph::GraphPreset;
use vr_workloads::{gap, Scale, Workload};

const BUDGET: u64 = 40_000;

/// The five techniques of the headline figure: OoO, PRE, IMP, VR and
/// the perfect-prefetch Oracle.
fn techniques() -> [(&'static str, MemConfig, RunaheadConfig); 5] {
    [
        ("OoO", MemConfig::table1(), RunaheadConfig::none()),
        ("PRE", MemConfig::table1(), RunaheadConfig::of(RunaheadKind::Precise)),
        ("IMP", MemConfig::table1_with_imp(), RunaheadConfig::none()),
        ("VR", MemConfig::table1(), RunaheadConfig::vector()),
        ("Oracle", MemConfig::table1_oracle(), RunaheadConfig::none()),
    ]
}

fn bfs(preset: GraphPreset) -> Workload {
    gap::bfs_on(&preset.generate(Scale::Test), preset)
}

fn sim(w: &Workload, mem: MemConfig, ra: RunaheadConfig) -> Simulator {
    Simulator::new(CoreConfig::table1(), mem, ra, w.program.clone(), w.memory.clone(), &w.init_regs)
}

/// How many prefetches were evicted unused and how many are still
/// resident, over all requestors. `seal_stats` has asserted `pf_issued
/// == pf_used + pf_evicted_unused + resident`, so resident is the rest.
fn check(label: &str, s: &SimStats) -> (u64, u64) {
    let m = &s.mem;
    for (i, (&used, &issued)) in m.pf_used.iter().zip(&m.pf_issued).enumerate() {
        assert!(used <= issued, "{label}: requestor {i} used {used} of {issued} issued");
    }
    let sum = |counts: [u64; 4]| counts.iter().sum::<u64>();
    let evicted = sum(m.pf_evicted_unused);
    (evicted, sum(m.pf_issued) - sum(m.pf_used) - evicted)
}

#[test]
fn every_prefetch_books_one_outcome() {
    let (mut evicted, mut resident) = (0, 0);
    let mut tally = |label: &str, s: &SimStats| {
        let (e, r) = check(label, s);
        evicted += e;
        resident += r;
    };
    for preset in [GraphPreset::Kron, GraphPreset::Urand] {
        let w = bfs(preset);
        for (name, mem, ra) in techniques() {
            let s = sim(&w, mem, ra).try_run(BUDGET).expect("clean run");
            assert!(s.mem.pf_issued.iter().sum::<u64>() > 0, "{name}/{preset:?}: no prefetch");
            tally(&format!("{name}/{preset:?}"), &s);
        }
    }

    // A 2-core VR chip: both cores share one LLC + DRAM broker and
    // step in min-clock rounds, as `vr-chip` drives them. Their private
    // caches are shrunk so that L2 victims, prefetched ones among them,
    // leave for the shared LLC within the budget.
    let mut cfg = MemConfig::table1();
    cfg.l1d.size_bytes = 8 << 10;
    cfg.l2.size_bytes = 32 << 10;
    let mut llc = Some(Box::new(SharedLlc::new(SharedLlcConfig {
        l3: cfg.l3,
        dram_min_latency: cfg.dram_min_latency,
        dram_cycles_per_line: cfg.dram_cycles_per_line,
        banks: 8,
        bank_service_cycles: 4,
        shared_mshrs: 64,
    })));
    let mut cores: Vec<Simulator> = [GraphPreset::Kron, GraphPreset::Urand]
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let mut core = sim(&bfs(p), cfg.clone(), RunaheadConfig::vector());
            core.attach_shared_llc(i as u32);
            core
        })
        .collect();
    while let Some(core) =
        cores.iter_mut().filter(|c| !c.finished(BUDGET / 2)).min_by_key(|c| c.cycle())
    {
        core.install_shared_llc(llc.take().expect("broker between core steps"));
        core.advance().expect("clean chip run");
        llc = Some(core.take_shared_llc());
    }
    for (i, core) in cores.iter_mut().enumerate() {
        let s = core.seal_stats();
        assert!(s.mem.pf_evicted_unused.iter().sum::<u64>() > 0, "chip core {i}: none left unused");
        tally(&format!("chip core {i}"), &s);
    }

    assert!(evicted > 0, "no prefetch was evicted unused anywhere");
    assert!(resident > 0, "no prefetch was left resident anywhere");
}
