//! Standalone probes of the layers under the simulator: the functional
//! emulator, the memory-image digest, the branch predictor and the
//! cache hierarchy, each driven directly with the programs' own
//! instruction, branch and load/store streams. A replay times batches
//! of at least [`BATCH`] calls, never single calls.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vr_core::SimStats;
use vr_frontend::{DirectionPredictor, Tage};
use vr_isa::{Cpu, Memory, Step};
use vr_mem::{Access, MemConfig, MemorySystem, Requestor, SharedLlc, SharedLlcConfig};
use vr_workloads::Workload;

use crate::inputs::Sizing;
use crate::metrics::Report;

/// Calls per timed batch of a replay.
pub const BATCH: usize = 10_000;

/// Generator time and image size.
pub fn workloads(report: &mut Report, gen_s: f64, image_mb: f64) {
    report.put("workloads.gen_s", gen_s, 1, None);
    report.put("workloads.image_mb", image_mb, 1, None);
}

/// The simulated counts behind `sim_ipc_hmean`, summed over `stats`
/// (one per program, or per core): they repeat exactly, and a change
/// meant only to speed the simulator up must leave every one alone.
/// These stall counts overlap; they are not a CPI stack.
pub fn simulated(report: &mut Report, stats: &[SimStats]) {
    let sum = |f: fn(&SimStats) -> u64| stats.iter().map(|s| f(s) as f64).sum::<f64>();
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let cycles = sum(|s| s.cycles);
    let insts = sum(|s| s.instructions);
    report.put_sim("core.rob_full_stall_frac", ratio(sum(|s| s.full_rob_stall_cycles), cycles));
    report.put_sim("core.commit_stall_frac", ratio(sum(|s| s.commit_stall_cycles), cycles));
    report.put_sim("core.vr_episodes", sum(|s| s.vr_batches));
    report.put_sim(
        "core.vr_lanes_per_episode",
        ratio(sum(|s| s.vr_lanes_spawned), sum(|s| s.vr_batches)),
    );
    report.put_sim("core.vr_cycles_frac", ratio(sum(|s| s.runahead_cycles), cycles));
    report.put_sim(
        "core.vr_delayed_term_frac",
        ratio(sum(|s| s.delayed_termination_stall_cycles), cycles),
    );
    report.put_sim("frontend.mispredict_frac", ratio(sum(|s| s.mispredicts), sum(|s| s.branches)));
    // `load_hits` is indexed L1, L2, L3, DRAM.
    report.put_sim("mem.llc_mpki", ratio(sum(|s| s.mem.load_hits[3]) * 1e3, insts));
    report.put_sim(
        "mem.l1d_miss_frac",
        1.0 - ratio(sum(|s| s.mem.load_hits[0]), sum(|s| s.mem.demand_loads)),
    );
    report.put_sim("mem.mshr_avg_occupancy", ratio(sum(|s| s.mshr_occupancy_integral), cycles));
    report.put_sim("mem.pf_dropped_mshr", sum(|s| s.mem.pf_dropped_mshr));
    // Index 1 of the per-requestor arrays is the runahead engine.
    report.put_sim(
        "mem.pf_useful_frac",
        ratio(sum(|s| s.mem.pf_used[1]), sum(|s| s.mem.pf_issued[1])),
    );
}

/// A conditional branch of the captured stream.
struct Branch {
    pc: u64,
    taken: bool,
}

/// A load or store of the captured stream.
pub struct MemRef {
    pub addr: u64,
    pub pc: u64,
    pub is_store: bool,
}

/// `cpu` with `w`'s entry registers.
fn entry_cpu(w: &Workload) -> Cpu {
    let mut cpu = Cpu::new();
    for &(r, v) in &w.init_regs {
        cpu.set_x(r, v);
    }
    cpu
}

/// Steps `w` functionally from entry for up to `insts` instructions
/// against `mem` (a fresh clone of its image), handing each step to
/// `each`; returns the instructions executed.
fn emulate(w: &Workload, mem: &mut Memory, insts: u64, mut each: impl FnMut(&Step)) -> u64 {
    let mut cpu = entry_cpu(w);
    let mut done = 0;
    while done < insts && !cpu.halted() {
        let Ok(step) = cpu.step(&w.program, mem) else { break };
        each(&step);
        done += 1;
    }
    done
}

/// The conditional-branch and load/store streams of `w`'s first
/// `insts` instructions.
fn capture(w: &Workload, insts: u64) -> (Vec<Branch>, Vec<MemRef>) {
    let (mut branches, mut refs) = (Vec::new(), Vec::new());
    emulate(w, &mut w.memory.clone(), insts, |s| {
        if let Some(taken) = s.taken {
            branches.push(Branch { pc: s.pc, taken });
        }
        if let Some(m) = s.mem {
            refs.push(MemRef { addr: m.addr, pc: s.pc, is_store: m.is_store });
        }
    });
    (branches, refs)
}

/// The load/store stream of `w`'s first `insts` instructions.
pub fn capture_mem_refs(w: &Workload, insts: u64) -> Vec<MemRef> {
    capture(w, insts).1
}

/// Total seconds and calls of `items` fed to `call` in timed batches.
fn time_batches<T>(items: &[T], mut call: impl FnMut(&T)) -> (f64, usize) {
    let mut secs = 0.0;
    let mut calls = 0;
    for batch in items.chunks(BATCH) {
        if batch.len() < BATCH && calls > 0 {
            break;
        }
        let t = Instant::now();
        for item in batch {
            call(item);
        }
        secs += t.elapsed().as_secs_f64();
        calls += batch.len();
    }
    (secs, calls)
}

/// Replays `refs` as main-thread demand accesses, one per cycle; a
/// full MSHR file stalls the replay for a DRAM round trip.
fn replay_hierarchy(refs: &[MemRef]) -> (f64, usize) {
    let cfg = MemConfig::table1();
    let stall = cfg.dram_min_latency;
    let mut ms = MemorySystem::new(cfg);
    let mut now = 0u64;
    let out = time_batches(refs, |r| {
        let kind = if r.is_store { Access::Store } else { Access::Load };
        now += 1;
        while ms.access(r.addr, kind, Requestor::Main, r.pc, now).is_err() {
            now += stall;
        }
    });
    black_box(ms.stats());
    out
}

/// `isa.*`, `frontend.tage_ns_per_branch` and `mem.access_ns_per_ref`:
/// each program's first `replay_insts` instructions, standalone.
pub fn replays(report: &mut Report, sizing: &Sizing, programs: &[Arc<Workload>]) {
    let (mut emu_s, mut emu_insts) = (0.0, 0u64);
    let (mut tage_s, mut tage_calls) = (0.0, 0usize);
    let (mut mem_s, mut mem_calls) = (0.0, 0usize);
    let mut digest_ms = Vec::new();
    for w in programs {
        let mut mem = w.memory.clone();
        let t = Instant::now();
        emu_insts += emulate(w, &mut mem, sizing.replay_insts, |s| {
            black_box(s);
        });
        emu_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        black_box(w.memory.digest());
        digest_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let (branches, refs) = capture(w, sizing.replay_insts);
        let mut tage = Tage::default_8kb();
        let (s, n) = time_batches(&branches, |b| {
            black_box(tage.predict_and_train(b.pc, b.taken));
        });
        tage_s += s;
        tage_calls += n;
        let (s, n) = replay_hierarchy(&refs);
        mem_s += s;
        mem_calls += n;
    }
    let n = programs.len();
    put_per_call(report, "isa.emulate_ns_per_inst", emu_s, emu_insts as usize, n);
    report.put_median("isa.digest_ms_p50", &digest_ms);
    put_per_call(report, "frontend.tage_ns_per_branch", tage_s, tage_calls, n);
    put_per_call(report, "mem.access_ns_per_ref", mem_s, mem_calls, n);
}

/// Nanoseconds per call over `n` replayed programs, if any call ran.
fn put_per_call(report: &mut Report, name: &str, secs: f64, calls: usize, n: usize) {
    if calls > 0 {
        report.put(name, secs * 1e9 / calls as f64, n, None);
    }
}

/// `mem.shared_access_ns_per_line`: the chip's broker alone, fed the
/// line streams of `cores` programs interleaved one access per core
/// per cycle.
pub fn shared_llc_replay(report: &mut Report, cfg: SharedLlcConfig, streams: &[Vec<MemRef>]) {
    let line = cfg.l3.line_bytes;
    let mut llc = SharedLlc::new(cfg);
    let len = streams.iter().map(Vec::len).min().unwrap_or(0);
    let turns: Vec<(u32, u64)> = (0..len)
        .flat_map(|i| {
            streams.iter().enumerate().map(move |(c, s)| (c as u32, s[i].addr / line * line))
        })
        .collect();
    let mut now = 0u64;
    let (secs, calls) = time_batches(&turns, |&(core, la)| {
        now += 1;
        black_box(llc.access_line(core, la, now));
    });
    put_per_call(report, "mem.shared_access_ns_per_line", secs, calls, streams.len());
}
