//! The allocation-budget gate (DESIGN.md §12): proves the simulator's
//! steady-state loop performs **zero heap allocations**.
//!
//! Registers [`vr_bench::alloc::CountingAlloc`] as the process-wide
//! global allocator (hence `harness = false` and the `alloc-count`
//! feature gate), runs a mid-size Vector Runahead workload past its
//! warmup transient — during which the engine pools, lane pools,
//! store-overlay tables, and event/ready buffers reach their
//! steady-state capacities — then asserts that a region of interest
//! covering hundreds of thousands of committed instructions and many
//! runahead episodes acquires no memory at all: no `alloc`, no
//! `realloc`.
//!
//! Design notes on the workload:
//!
//! * `vr_isa::Memory` is sparse and first-touch: *writes* allocate
//!   4 KiB pages on demand, *reads* of unmapped pages return zero
//!   without allocating. Setup therefore pre-writes every table the
//!   kernel will ever touch, and the kernel itself performs no stores
//!   to fresh pages inside the ROI.
//! * The kernel is the evaluation's canonical pattern — a striding
//!   load feeding an indirect load (`T[A[i]]`) over a DRAM-resident
//!   footprint — so the ROI exercises the full machinery: full-ROB
//!   stalls, vectorized episode entry, gathers, episode exit flushes,
//!   and the wakeup/flush paths of the slab scheduler.

use vr_bench::alloc::CountingAlloc;
use vr_chip::{Chip, ChipConfig, CoreSlot};
use vr_core::{CoreConfig, RunaheadConfig, Simulator};
use vr_isa::{Asm, Memory, Program, Reg};
use vr_mem::MemConfig;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Committed-instruction horizon for the warmup transient. Long enough
/// to include many runahead episodes, so every pool (engine, lanes,
/// overlay, heap, ready lists) has grown to its steady-state size.
const WARMUP_INSTS: u64 = 400_000;
/// End of the measured region of interest.
const ROI_END_INSTS: u64 = 900_000;

/// `sum += T[A[i]]` over a `len`-entry index array and `len`-entry
/// target table — both pre-written so the sparse memory never
/// first-touches a page mid-run. `len` must be large enough that the
/// combined footprint exceeds the LLC, or the workload turns
/// cache-resident after one pass and the ROI stops stalling.
fn indirect_kernel(len: u64) -> (Program, Memory) {
    let a_base = 0x100_0000u64;
    let t_base = 0x4000_0000u64;
    let mut mem = Memory::new();
    let mut x = 0x9e37_79b9u64;
    for i in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        mem.write_u64(a_base + i * 8, x % len);
        mem.write_u64(t_base + i * 8, x);
    }
    let mut a = Asm::new();
    a.li(Reg::T0, 0); // i
    a.li(Reg::T1, len as i64);
    a.li(Reg::S2, 0); // sum
    let top = a.here();
    a.slli(Reg::T2, Reg::T0, 3);
    a.add(Reg::T2, Reg::T2, Reg::A0);
    a.ld(Reg::T3, Reg::T2, 0); // A[i]
    a.slli(Reg::T4, Reg::T3, 3);
    a.add(Reg::T4, Reg::T4, Reg::A1);
    a.ld(Reg::T5, Reg::T4, 0); // T[A[i]]
    a.add(Reg::S2, Reg::S2, Reg::T5);
    a.addi(Reg::T0, Reg::T0, 1);
    a.blt(Reg::T0, Reg::T1, top);
    // Wrap around forever so any instruction budget is reachable.
    a.li(Reg::T0, 0);
    a.j(top);
    (a.assemble(), mem)
}

/// The single-core scenario: warm up on `mem`, then assert the region
/// of interest acquires nothing from the heap.
fn single_core_roi(scenario: &str, prog: Program, mem: Memory) {
    let mut sim = Simulator::new(
        CoreConfig::table1(),
        MemConfig::table1(),
        RunaheadConfig::vector(),
        prog,
        mem,
        &[(Reg::A0, 0x100_0000), (Reg::A1, 0x4000_0000)],
    );

    // Warmup: grow every pool and buffer to steady-state capacity.
    let warm = sim.try_run(WARMUP_INSTS).expect("warmup run");
    assert!(
        warm.runahead_entries > 10,
        "warmup must include runahead episodes (got {}) or the gate proves nothing",
        warm.runahead_entries
    );

    let caps_before =
        sim.vector_buffer_caps().expect("warmup episodes leave a vector engine (live or pooled)");

    // Region of interest: not one byte may be acquired from the heap.
    let ops_before = ALLOC.heap_ops();
    let bytes_before = ALLOC.bytes_allocated();
    let stats = sim.try_run(ROI_END_INSTS).expect("ROI run");
    let ops = ALLOC.heap_ops() - ops_before;
    let bytes = ALLOC.bytes_allocated() - bytes_before;

    // The vector engine's steady-state-critical buffers
    // (`pending_gather`, the fused-gather scratch, the lane columns)
    // are pre-sized at construction (DESIGN.md §14); episodes must
    // never grow them.
    let caps_after = sim.vector_buffer_caps().expect("engine still exists after ROI");
    assert_eq!(caps_before, caps_after, "vector engine buffer capacities changed across the ROI");

    // The ROI itself must have been substantial and episodic — an
    // idle ROI would make a zero-alloc result vacuous.
    assert!(stats.instructions >= ROI_END_INSTS, "ROI committed {}", stats.instructions);
    assert!(
        stats.runahead_entries > warm.runahead_entries + 10,
        "ROI must include fresh runahead episodes ({} -> {})",
        warm.runahead_entries,
        stats.runahead_entries
    );
    assert_eq!(
        ops,
        0,
        "steady-state loop{scenario} performed {ops} heap acquisitions ({bytes} bytes) across \
         {} committed instructions — the allocation budget is zero",
        ROI_END_INSTS - WARMUP_INSTS
    );

    println!(
        "alloc budget OK{scenario}: 0 heap ops across {} insts, {} episodes in ROI \
         (process totals: {} allocs, {} reallocs, {} frees)",
        ROI_END_INSTS - WARMUP_INSTS,
        stats.runahead_entries - warm.runahead_entries,
        ALLOC.allocations(),
        ALLOC.reallocations(),
        ALLOC.frees(),
    );
}

fn main() {
    // 2^20 entries × 8 B × 2 tables = 16 MiB — several times the
    // Table 1 LLC, so the indirect loads keep missing to DRAM across
    // the whole run and runahead episodes never dry up.
    let (prog, mem) = indirect_kernel(1 << 20);

    // A clone shares every page with its origin (copy-on-write): it
    // allocates the chunk vector, not the pages — `chunks + 2` leaves
    // room for a chunk-level allocation each, which is still ~500x
    // under one per page.
    let chunks = mem.mapped_pages().div_ceil(512) as u64;
    let allocs_before = ALLOC.allocations();
    let shared = mem.clone();
    let clone_allocs = ALLOC.allocations() - allocs_before;
    assert!(
        clone_allocs <= chunks + 2,
        "Memory::clone of {} pages in {chunks} chunks made {clone_allocs} allocations",
        mem.mapped_pages()
    );

    // The kernel only loads, and loads never un-share a page: the ROI
    // on a clone whose origin is still alive is as allocation-free as
    // on an image the simulator owns outright.
    single_core_roi(" (shared image)", prog.clone(), shared);
    single_core_roi("", prog, mem);

    // ---- 4-core chip scenario (DESIGN.md §16): the lockstep stepping
    // loop and the shared banked-LLC broker (bank queues, shared MSHR
    // pool, writeback routing) must be just as allocation-free at
    // steady state as the single core. `Chip::step` is the per-cycle
    // API precisely so this gate can drive it without the `ChipRun`
    // vector `try_run` builds.
    const CHIP_WARMUP_INSTS: u64 = 120_000;
    const CHIP_ROI_END_INSTS: u64 = 260_000;
    let slots: Vec<CoreSlot> = (0..4)
        .map(|_| {
            // 2^19 entries × 8 B × 2 tables = 8 MiB per core: four
            // cores overflow the shared LLC, so the broker keeps
            // arbitrating misses for the whole run.
            let (prog, mem) = indirect_kernel(1 << 19);
            CoreSlot {
                ra: RunaheadConfig::vector(),
                program: prog,
                memory: mem,
                init_regs: vec![(Reg::A0, 0x100_0000), (Reg::A1, 0x4000_0000)],
            }
        })
        .collect();
    let mut chip =
        Chip::new(ChipConfig::with_cores(4), CoreConfig::table1(), MemConfig::table1(), slots);
    chip.validate().expect("chip config");

    // Warmup: every core past its pool-growth transient.
    while chip.step(CHIP_WARMUP_INSTS).expect("chip warmup") {}

    // Region of interest: not one byte from the heap, chip-wide.
    let ops_before = ALLOC.heap_ops();
    let bytes_before = ALLOC.bytes_allocated();
    while chip.step(CHIP_ROI_END_INSTS).expect("chip ROI") {}
    let chip_ops = ALLOC.heap_ops() - ops_before;
    let chip_bytes = ALLOC.bytes_allocated() - bytes_before;

    // Sealing (allocates the ChipRun) happens after the counters are
    // read; the run must have been substantial, episodic, and actually
    // contended at the shared banks, or zero allocs proves nothing.
    let run = chip.try_run(CHIP_ROI_END_INSTS).expect("seal chip stats");
    let episodes: u64 = run.per_core.iter().map(|s| s.runahead_entries).sum();
    assert!(
        run.per_core.iter().all(|s| s.instructions >= CHIP_ROI_END_INSTS),
        "every core must reach the ROI horizon"
    );
    assert!(episodes > 40, "chip ROI must be episodic (got {episodes} entries)");
    assert!(
        run.chip.bank_conflicts + run.chip.arbitration_stall_cycles > 0,
        "chip ROI must contend at the shared LLC banks"
    );
    assert_eq!(
        chip_ops,
        0,
        "4-core chip steady state performed {chip_ops} heap acquisitions ({chip_bytes} bytes) \
         across {} committed instructions per core — the allocation budget is zero",
        CHIP_ROI_END_INSTS - CHIP_WARMUP_INSTS
    );
    // The ROI must have exercised the chip fast-forward machinery
    // (DESIGN.md §17) — desync windows skipped in bulk — or the gate
    // says nothing about that path's allocation behavior.
    let tel = chip.telemetry();
    assert!(
        tel.ff_windows > 0 && tel.ff_cycles_skipped > 0,
        "chip ROI never fast-forwarded (windows {}, skipped {}) — gate does not cover the path",
        tel.ff_windows,
        tel.ff_cycles_skipped
    );

    println!(
        "alloc budget OK (4-core chip): 0 heap ops across {} insts/core, {episodes} episodes, \
         {} bank conflicts, {} shared-MSHR rejections, {} ff windows ({} cycles skipped)",
        CHIP_ROI_END_INSTS - CHIP_WARMUP_INSTS,
        run.chip.bank_conflicts,
        run.chip.shared_mshr_rejections,
        tel.ff_windows,
        tel.ff_cycles_skipped,
    );
}
