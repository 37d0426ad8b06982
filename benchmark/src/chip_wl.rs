//! `chip_scale`: lockstepped chips of 2, 4 and 8 cores over the shared
//! LLC, `bfs_KR` on even cores and `Camel` on odd ones, all-OoO and
//! all-VR.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use vr_chip::{Chip, ChipConfig, ChipRun, ChipTelemetry, CoreSlot};
use vr_core::{CoreConfig, SimStats};
use vr_mem::{MemConfig, SharedLlcConfig};
use vr_workloads::Workload;

use crate::core_wl::{sim_op, technique};
use crate::inputs::{generate, image_mb, Programs};
use crate::layers;
use crate::metrics::Report;
use crate::passes::{self, record_op, run_passes, OpTimes};
use crate::trace::Tracer;
use crate::Run;

/// Chip sizes swept (the `.n2/.n4/.n8` metrics are named after them).
const CORES: [usize; 3] = [2, 4, 8];

/// One chip point: `cores` cores all running the same technique.
struct Point {
    cores: usize,
    vector: bool,
}

impl Point {
    fn label(&self) -> String {
        format!("n{}/{}", self.cores, if self.vector { "vr" } else { "ooo" })
    }
}

/// What a chip point simulated, and how the chip went about it. Both
/// are deterministic on one chip thread, so both must repeat exactly.
#[derive(PartialEq, Debug)]
struct ChipResult {
    run: ChipRun,
    telemetry: ChipTelemetry,
}

impl ChipResult {
    fn insts(&self) -> f64 {
        self.run.per_core.iter().map(|s| s.instructions as f64).sum()
    }

    fn core_cycles(&self) -> f64 {
        self.run.per_core.iter().map(|s| s.cycles as f64).sum()
    }
}

/// One op: clone every slot's program and image, build the chip, run
/// every core to its budget on one chip thread.
fn chip_op(
    point: &Point,
    pair: &[Arc<Workload>],
    insts: u64,
    tracer: &Tracer,
) -> Result<(ChipResult, OpTimes), String> {
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let slots: Vec<CoreSlot> = (0..point.cores)
            .map(|i| {
                let w = &pair[i % 2];
                CoreSlot {
                    ra: technique(point.vector),
                    program: w.program.clone(),
                    memory: w.memory.clone(),
                    init_regs: w.init_regs.clone(),
                }
            })
            .collect();
        let t1 = Instant::now();
        let mut chip = Chip::new(
            ChipConfig::with_cores(point.cores),
            CoreConfig::table1(),
            MemConfig::table1(),
            slots,
        );
        let t2 = Instant::now();
        let ran = chip.try_run(insts);
        let t3 = Instant::now();
        (ran, chip.telemetry().clone(), [t0, t1, t2, t3])
    }));
    let (ran, telemetry, t) = outcome.map_err(|_| "panicked".to_owned())?;
    let run = ran.map_err(|e| e.to_string())?;
    record_op(tracer, "chip.new", "chip.run", t);
    Ok((ChipResult { run, telemetry }, OpTimes::between(t)))
}

/// Runs `chip_scale`.
pub fn run(run: &Run) -> Report {
    let mut report = Report::new();
    let t = Instant::now();
    let pair = generate(run.sizing, run.seed, Programs::ChipPair);
    let gen_s = t.elapsed().as_secs_f64();

    let points: Vec<Point> = CORES
        .iter()
        .flat_map(|&cores| [false, true].map(|vector| Point { cores, vector }))
        .collect();
    let insts = run.sizing.chip_insts;
    let op = |p: &Point, tracer: &Tracer, warm_up: bool| {
        let (result, times) = chip_op(p, &pair, insts, tracer)?;
        if warm_up {
            let cores = &result.run.per_core;
            if cores.iter().any(|s| s.instructions < insts) {
                return Err("a core stopped short of its budget".to_owned());
            }
            if !p.vector && cores.iter().any(|s| s.vr_batches > 0) {
                return Err("vector episodes without Vector Runahead".to_owned());
            }
        }
        Ok((result, times))
    };
    let Some(passes) = run_passes(run, &points, Point::label, op, &mut report) else {
        return report;
    };
    for r in &passes.results {
        report.fold_stats(&r.run);
    }
    let insts_all: f64 = passes.results.iter().map(ChipResult::insts).sum();
    let cycles_all: f64 = passes.results.iter().map(ChipResult::core_cycles).sum();
    let ipcs: Vec<f64> =
        passes.results.iter().flat_map(|r| r.run.per_core.iter().map(|s| s.ipc())).collect();
    passes::end_to_end(&mut report, &passes, gen_s, insts_all, &ipcs);
    if !run.tracer.enabled() {
        return report;
    }

    layers::workloads(&mut report, gen_s, image_mb(&pair));
    layers::replays(&mut report, run.sizing, &pair);
    passes::trace_overhead(&mut report, &passes);
    let per_core: Vec<SimStats> =
        passes.results.iter().flat_map(|r| r.run.per_core.iter().copied()).collect();
    layers::simulated(&mut report, &per_core);
    let n = passes.timed.len();
    report.put_median("workloads.clone_ms_p50", &passes.all_ms(|t| t.clone_s));
    report.put_median("chip.new_ms_p50", &passes.all_ms(|t| t.new_s));
    let run_s: f64 = passes.median_s(|t| t.run_s).iter().sum();
    report.put("chip.run_ns_per_core_cycle", run_s * 1e9 / cycles_all, n, None);
    let op_s = passes.median_s(OpTimes::total_s);
    for ((p, r), s) in points.iter().zip(&passes.results).zip(&op_s).filter(|((p, _), _)| p.vector)
    {
        let kips = r.insts() / s / 1e3;
        report.put(&format!("chip.agg_kips.n{}", p.cores), kips, n, None);
        report.put(&format!("chip.percore_kips.n{}", p.cores), kips / p.cores as f64, n, None);
    }
    let sum = |f: fn(&ChipResult) -> u64| passes.results.iter().map(|r| f(r) as f64).sum::<f64>();
    let per_kcycle = |x: f64| x * 1e3 / cycles_all;
    report.put_sim(
        "chip.ff_cycles_skipped_frac",
        sum(|r| r.telemetry.ff_cycles_skipped) / cycles_all,
    );
    report.put_sim(
        "chip.broker_installs_per_kcycle",
        per_kcycle(sum(|r| r.telemetry.broker_installs)),
    );
    report.put_sim(
        "chip.horizon_blocks_per_kcycle",
        per_kcycle(sum(|r| r.telemetry.horizon_blocks.iter().sum())),
    );
    report.put_sim("chip.par_cycles", sum(|r| r.telemetry.par_cycles));
    report.put_sim(
        "chip.bank_conflicts_per_kinst",
        sum(|r| r.run.chip.bank_conflicts) * 1e3 / insts_all,
    );
    report
        .put_sim("chip.arb_stall_frac", sum(|r| r.run.chip.arbitration_stall_cycles) / cycles_all);

    if let Some(n4) = points.iter().position(|p| p.cores == 4 && p.vector) {
        lockstep_cost(run, &pair, op_s[n4], &mut report);
    }
    // The broker exactly as `Chip::new` builds it for four cores.
    let (table1, four) = (MemConfig::table1(), ChipConfig::with_cores(4));
    let broker = SharedLlcConfig {
        l3: table1.l3,
        dram_min_latency: table1.dram_min_latency,
        dram_cycles_per_line: table1.dram_cycles_per_line,
        banks: four.llc_banks,
        bank_service_cycles: four.bank_service_cycles,
        shared_mshrs: four.shared_mshrs,
    };
    let streams: Vec<_> = (0..four.cores)
        .map(|i| layers::capture_mem_refs(&pair[i % 2], run.sizing.replay_insts))
        .collect();
    layers::shared_llc_replay(&mut report, broker, &streams);
    report
}

/// `chip.lockstep_cost_ratio.n4`: the 4-core VR chip's host time over
/// the summed host time of its four slots simulated standalone at the
/// same budget.
fn lockstep_cost(run: &Run, pair: &[Arc<Workload>], chip_op_s: f64, report: &mut Report) {
    let off = Tracer::new(false, 0);
    let mut standalone_s = 0.0;
    for w in pair {
        // Two of the four slots run each program; the first op warms
        // the host, the second is the one counted (twice).
        let mut warm_s = 0.0;
        for rep in 0..2 {
            let what = format!("{} standalone {rep}", w.name);
            let alone = sim_op(w, &technique(true), run.sizing.chip_insts, &off);
            let Some((_, _, t)) = report.attempt(&what, alone) else { return };
            warm_s = t.total_s();
        }
        standalone_s += 2.0 * warm_s;
    }
    report.put("chip.lockstep_cost_ratio.n4", chip_op_s / standalone_s, 1, None);
}
