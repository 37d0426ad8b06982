//! N=1 differential test: a one-core [`Chip`] must be **bit-identical**
//! to the standalone [`Simulator`] on every golden-stats point (the
//! same matrix `crates/core/tests/golden_stats.rs` pins).
//!
//! A single-core chip has no shared LLC, so its core is unattached and
//! every [`Chip::step`] round is one iteration of the loop
//! `Simulator::try_run` runs — the same `Simulator::advance` kernel,
//! free-running vector windows included. Any drift here means the chip
//! layer perturbed single-core semantics — which would silently
//! re-address every existing result-store record. Run both with and
//! without `--features checked` (CI does).

use vr_chip::{Chip, ChipConfig, CoreSlot};
use vr_core::{CoreConfig, RunaheadConfig, RunaheadKind, Simulator};
use vr_mem::MemConfig;
use vr_workloads::{gap, graph::GraphPreset, Scale};

/// Same per-point budget as the golden-stats matrix.
const BUDGET: u64 = 40_000;

fn check(preset: GraphPreset, kind: RunaheadKind) {
    let graph = preset.generate(Scale::Test);
    let w = gap::bfs_on(&graph, preset);
    let ra = match kind {
        RunaheadKind::None => RunaheadConfig::none(),
        RunaheadKind::Vector => RunaheadConfig::vector(),
        k => RunaheadConfig::of(k),
    };

    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        ra.clone(),
        w.program.clone(),
        w.memory.clone(),
        &w.init_regs,
    );
    let solo = sim.try_run(BUDGET).expect("standalone run must be clean");

    let chip = || {
        Chip::new(
            ChipConfig::with_cores(1),
            CoreConfig::table1(),
            MemConfig::table1(),
            vec![CoreSlot {
                ra: ra.clone(),
                program: w.program.clone(),
                memory: w.memory.clone(),
                init_regs: w.init_regs.clone(),
            }],
        )
    };
    // Drives `Chip::step` directly, like any external clock owner.
    let step_to = |chip: &mut Chip, budget: u64| {
        chip.validate().expect("table-1 config is valid");
        while chip.step(budget).expect("1-core chip run must be clean") {}
    };

    let mut oneshot = chip();
    step_to(&mut oneshot, BUDGET);
    let mut resumed = chip();
    step_to(&mut resumed, BUDGET / 4);
    step_to(&mut resumed, BUDGET);

    for (how, chip) in [("one-shot", &mut oneshot), ("resumed", &mut resumed)] {
        let run = chip.try_run(BUDGET).expect("sealing a finished chip cannot fail");
        assert_eq!(run.per_core.len(), 1);
        assert_eq!(
            run.per_core[0], solo,
            "{how} 1-core chip drifted from the standalone simulator on {preset:?}/{kind:?}"
        );
        // N = 1 goes through the same round loop as any N: it skips
        // quiescent windows, and has no broker to install.
        let tel = chip.telemetry();
        assert!(tel.ff_windows > 0, "{how} N=1 chip never fast-forwarded: {tel:?}");
        assert_eq!(tel.broker_installs, 0, "{how} N=1 chip has no broker: {tel:?}");
    }
}

#[test]
fn n1_kron_no_runahead() {
    check(GraphPreset::Kron, RunaheadKind::None);
}

#[test]
fn n1_kron_classic_runahead() {
    check(GraphPreset::Kron, RunaheadKind::Classic);
}

#[test]
fn n1_kron_vector_runahead() {
    check(GraphPreset::Kron, RunaheadKind::Vector);
}

#[test]
fn n1_urand_no_runahead() {
    check(GraphPreset::Urand, RunaheadKind::None);
}

#[test]
fn n1_urand_classic_runahead() {
    check(GraphPreset::Urand, RunaheadKind::Classic);
}

#[test]
fn n1_urand_vector_runahead() {
    check(GraphPreset::Urand, RunaheadKind::Vector);
}
