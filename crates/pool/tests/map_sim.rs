//! `vr_pool::map` with what its callers actually hand it: whole
//! simulations. Each item builds its own `Simulator` from cloned
//! program and memory state, so fanning the points across threads must
//! reproduce the serial statistics bit for bit.

use vr_core::{CoreConfig, RunaheadConfig, SimStats, Simulator};
use vr_mem::MemConfig;
use vr_workloads::{hpcdb_suite, Scale, Workload};

#[test]
fn simulation_stats_are_bit_identical_serial_vs_four_threads() {
    let set: Vec<Workload> = hpcdb_suite(Scale::Test).into_iter().collect();
    let points: Vec<(&Workload, RunaheadConfig)> = set
        .iter()
        .take(4)
        .flat_map(|w| [(w, RunaheadConfig::none()), (w, RunaheadConfig::vector())])
        .collect();
    let run = |(w, ra): &(&Workload, RunaheadConfig)| -> SimStats {
        Simulator::new(
            CoreConfig::table1(),
            MemConfig::table1(),
            ra.clone(),
            w.program.clone(),
            w.memory.clone(),
            &w.init_regs,
        )
        .try_run(5_000)
        .expect("test-scale kernels simulate")
    };
    let serial = vr_pool::map(1, &points, run);
    assert!(serial.iter().all(|s| s.instructions >= 5_000));
    assert_eq!(vr_pool::map(4, &points, run), serial);
}
