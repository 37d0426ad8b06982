//! `core_ooo` and `core_vr`: the 13 programs on one core, baseline
//! out-of-order or Vector Runahead.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use vr_core::{harmonic_mean, CoreConfig, RunaheadConfig, SimStats, Simulator};
use vr_isa::{FReg, Reg};
use vr_mem::MemConfig;
use vr_workloads::Workload;

use crate::inputs::{generate, image_mb, Programs};
use crate::layers;
use crate::metrics::Report;
use crate::passes::{self, record_op, run_passes, OpTimes, Passes};
use crate::trace::Tracer;
use crate::Run;

/// Vector Runahead as the paper evaluates it, or the baseline core.
pub fn technique(vector: bool) -> RunaheadConfig {
    if vector {
        RunaheadConfig::vector()
    } else {
        RunaheadConfig::none()
    }
}

/// One op — everything a figure pays per point: clone the program and
/// memory image, build the simulator, run the budget. A `SimError` or
/// a panic is the op's failure.
pub fn sim_op(
    w: &Workload,
    ra: &RunaheadConfig,
    insts: u64,
    tracer: &Tracer,
) -> Result<(Simulator, SimStats, OpTimes), String> {
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (program, memory) = (w.program.clone(), w.memory.clone());
        let t1 = Instant::now();
        let mut sim = Simulator::new(
            CoreConfig::table1(),
            MemConfig::table1(),
            ra.clone(),
            program,
            memory,
            &w.init_regs,
        );
        let t2 = Instant::now();
        let stats = sim.try_run(insts);
        (sim, stats, t1, t2, Instant::now())
    }));
    let (sim, stats, t1, t2, t3) = outcome.map_err(|_| "panicked".to_owned())?;
    let stats = stats.map_err(|e| e.to_string())?;
    record_op(tracer, "core.new", "core.run", [t0, t1, t2, t3]);
    Ok((sim, stats, OpTimes::between([t0, t1, t2, t3])))
}

/// Instructions the timing model may have fetched (and so executed
/// against its memory image) past the last committed one: the ROB and
/// fetch queue of the Table 1 core hold a few hundred.
const FETCH_AHEAD: u64 = 4096;

/// The committed registers must equal the functional emulator's after
/// the same committed count. The timing model executes stores at
/// fetch, so its memory image must equal the emulator's at one fetch
/// point at most [`FETCH_AHEAD`] instructions later: that point is
/// found from the in-flight store addresses and confirmed by digest.
pub fn check_arch_state(w: &Workload, sim: &Simulator, committed: u64) -> Result<(), String> {
    let emulate = || w.run_functional_with_memory(committed).map_err(|e| e.to_string());
    // First emulation: which addresses do the next stores write? (Two
    // emulations one after the other, not one and a copy of its image:
    // the second reuses the first's pages.)
    let mut stores = Vec::new();
    {
        let (mut cpu, mut mem) = emulate()?;
        for _ in 0..FETCH_AHEAD {
            if cpu.halted() {
                break;
            }
            let step = cpu.step(&w.program, &mut mem).map_err(|e| e.to_string())?;
            if let Some(m) = step.mem.filter(|m| m.is_store) {
                stores.push((m.addr, m.width.bytes()));
            }
        }
    }
    let (mut cpu, mut mem) = emulate()?;
    let got = sim.committed_cpu();
    if got.pc() != cpu.pc() {
        return Err(format!("committed pc {:#x}, emulator {:#x}", got.pc(), cpu.pc()));
    }
    for i in 0..32u8 {
        let (x, f) = (Reg::new(i), FReg::new(i));
        if got.x(x) != cpu.x(x) || got.f(f).to_bits() != cpu.f(f).to_bits() {
            return Err(format!("committed register {i} differs from the emulator"));
        }
    }
    let sim_mem = sim.memory();
    let mut left = FETCH_AHEAD;
    while !stores.iter().all(|&(a, n)| mem.read(a, n) == sim_mem.read(a, n)) {
        if left == 0 || cpu.halted() {
            return Err("memory at the in-flight stores matches no fetch point".to_owned());
        }
        cpu.step(&w.program, &mut mem).map_err(|e| e.to_string())?;
        left -= 1;
    }
    if mem.digest() != sim_mem.digest() {
        return Err("memory digest differs from the emulator".to_owned());
    }
    Ok(())
}

/// Runs `core_ooo` (`vector == false`) or `core_vr`.
pub fn run(run: &Run, vector: bool) -> Report {
    let mut report = Report::new();
    let ra = technique(vector);

    let t = Instant::now();
    let programs = generate(run.sizing, run.seed, Programs::All);
    let gen_s = t.elapsed().as_secs_f64();

    let op = |w: &Arc<Workload>, tracer: &Tracer, warm_up: bool| {
        let (sim, stats, times) = sim_op(w, &ra, run.sizing.core_insts, tracer)?;
        if warm_up {
            check_arch_state(w, &sim, stats.instructions)?;
        }
        Ok((stats, times))
    };
    let Some(passes) = run_passes(run, &programs, |w| w.name.clone(), op, &mut report) else {
        return report;
    };
    for s in &passes.results {
        report.fold_stats(s);
    }
    let insts: f64 = passes.results.iter().map(|s| s.instructions as f64).sum();
    let ipcs: Vec<f64> = passes.results.iter().map(SimStats::ipc).collect();
    passes::end_to_end(&mut report, &passes, gen_s, insts, &ipcs);

    let episodes = passes.results.iter().filter(|s| s.vr_batches > 0).count();
    report.notes.push(format!("programs with vector episodes: {episodes} of {}", programs.len()));
    report.require(vector || episodes == 0, "no vector episodes without Vector Runahead");

    if run.tracer.enabled() {
        layers::workloads(&mut report, gen_s, image_mb(&programs));
        layers::replays(&mut report, run.sizing, &programs);
        core_layers(&mut report, &passes, &programs);
        passes::trace_overhead(&mut report, &passes);
        if vector {
            vr_against_ooo(run, &programs, &passes, &mut report);
        }
    }
    report
}

/// The `core.*` and simulated `mem.*`/`frontend.*` metrics of the passes.
fn core_layers(report: &mut Report, passes: &Passes<SimStats>, programs: &[Arc<Workload>]) {
    report.put_median("workloads.clone_ms_p50", &passes.all_ms(|t| t.clone_s));
    report.put_median("core.new_ms_p50", &passes.all_ms(|t| t.new_s));
    let point_ms = passes.all_ms(OpTimes::total_s);
    report.put_median("core.point_ms_p50", &point_ms);
    report.put_tail("core.point_ms_ptail", &point_ms);

    let n = passes.timed.len();
    let op_s = passes.median_s(OpTimes::total_s);
    for ((w, s), t) in programs.iter().zip(&passes.results).zip(&op_s) {
        report.put(&format!("core.kips.{}", w.name), s.instructions as f64 / t / 1e3, n, None);
    }
    let run_s: f64 = passes.median_s(|t| t.run_s).iter().sum();
    let sum = |f: fn(&SimStats) -> u64| passes.results.iter().map(|s| f(s) as f64).sum::<f64>();
    let cycles = sum(|s| s.cycles);
    let insts = sum(|s| s.instructions);
    report.put("core.run_ns_per_cycle", run_s * 1e9 / cycles, n, None);
    report.put("core.run_ns_per_inst", run_s * 1e9 / insts, n, None);
    report.put("core.first_pass_ratio", passes.first_s() / op_s.iter().sum::<f64>(), n, None);

    layers::simulated(report, &passes.results);
}

/// Speed-up the follow-on paper reports for Vector Runahead on this
/// core, on its own inputs. There is no other reference: the model is
/// otherwise unvalidated.
const REPORTED_VR_SPEEDUP: f64 = 1.20;

/// An out-of-order reference pass inside the traced `core_vr` run: the
/// simulated speed-up and the VR/OoO simulation-speed ratio.
fn vr_against_ooo(
    run: &Run,
    programs: &[Arc<Workload>],
    vr: &Passes<SimStats>,
    report: &mut Report,
) {
    let (none, off) = (technique(false), Tracer::new(false, 0));
    let mut speedups = Vec::new();
    let mut speed = Vec::new();
    let vr_op_s = vr.median_s(OpTimes::total_s);
    for ((w, v), v_s) in programs.iter().zip(&vr.results).zip(&vr_op_s) {
        let what = format!("{} out-of-order reference", w.name);
        let reference = sim_op(w, &none, run.sizing.core_insts, &off);
        let Some((_, o, t)) = report.attempt(&what, reference) else { return };
        speedups.push(v.ipc() / o.ipc());
        speed.push(t.total_s() / v_s);
    }
    let hmean = harmonic_mean(&speedups);
    report.put_sim("model.vr_speedup_hmean", hmean);
    report
        .put_sim("model.vr_speedup_err", (hmean - REPORTED_VR_SPEEDUP).abs() / REPORTED_VR_SPEEDUP);
    report.put("core.vr_ooo_kips_ratio_hmean", harmonic_mean(&speed), 1, None);
    report.notes.push(format!(
        "model.vr_speedup_err is the distance from the {REPORTED_VR_SPEEDUP}x the follow-on \
         paper reports on different inputs; the model is otherwise unvalidated"
    ));
}
