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
//!
//! One more scenario bounds workload *generation* rather than the loop:
//! a builder streams its arrays into `vr_isa::Memory`, so building an
//! image may raise the heap's high-water mark by the pages it maps,
//! their chunk tables and one write batch — never by a host-side copy
//! of a whole array. A last one lays out 1024 identical pages, which
//! share one allocation, so its rise is a few pages, not 1024.
//!
//! The first scenario counts what a warm result-store hit acquires from
//! the heap: a handful of allocations per record, where a reader that
//! built a JSON tree made one per token.

use vr_bench::alloc::CountingAlloc;
use vr_campaign::{point_key, ResultStore};
use vr_chip::{Chip, ChipConfig, CoreSlot};
use vr_core::{CoreConfig, RunaheadConfig, Simulator};
use vr_isa::{Asm, Memory, Program, Reg};
use vr_mem::MemConfig;
use vr_workloads::graph::{kronecker, Csr, GraphPreset};
use vr_workloads::{gap, hpcdb, Scale, Workload};

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

/// Heap bytes behind one mapped 4 KiB page: the page and its `Arc`
/// header (two counts).
const PAGE_HEAP_BYTES: u64 = 4096 + 16;
/// Heap bytes behind one 2 MiB chunk: its 512-entry page table and the
/// table's `Arc` header.
const CHUNK_HEAP_BYTES: u64 = 512 * 8 + 16;
/// `Memory`'s bulk writers encode at most 64 Ki elements of 8 bytes at
/// a time.
const WRITE_BATCH_BYTES: u64 = (1 << 16) * 8;
/// Room for what a builder allocates beside its image: the assembled
/// program, its name and registers, and the memory's chunk vector.
const BUILD_SLACK_BYTES: u64 = 64 << 10;

/// Builds a workload over a fresh mid-size Kronecker graph and asserts
/// that the build's high-water rise of live heap bytes is at most the
/// pages it maps, their chunk tables and one write batch. The graph is
/// generated before the measurement starts; its image is not, so the
/// build maps (and is allowed) the graph's pages too.
fn generation_budget(build: fn(&Csr) -> Workload) {
    let g = kronecker(16, 16, 24301);
    ALLOC.reset_peak();
    let before = ALLOC.live_bytes();
    let w = build(&g);
    let rise = ALLOC.peak_live_bytes() - before;
    let pages = w.memory.mapped_pages() as u64;
    // Arena arrays are contiguous from a 2 MiB-aligned base, so the
    // pages span at most one chunk more than they fill.
    let chunks = pages.div_ceil(512) + 1;
    let limit =
        pages * PAGE_HEAP_BYTES + chunks * CHUNK_HEAP_BYTES + WRITE_BATCH_BYTES + BUILD_SLACK_BYTES;
    assert!(
        rise <= limit,
        "building {} over {} edges raised live heap bytes by {rise}, over the {limit} its \
         {pages} pages, {chunks} chunk tables and one write batch account for",
        w.name,
        g.num_edges(),
    );
    println!(
        "alloc budget OK (generation): {} raised live heap bytes by {} KiB of the {} KiB its \
         {pages} pages, {chunks} chunk tables and one write batch allow",
        w.name,
        rise >> 10,
        limit >> 10,
    );
}

/// Room for the table a bulk write keeps of the pages it laid out (one
/// entry here, in a map's smallest allocation) and the memory's chunk
/// vector.
const LAID_OUT_TABLE_BYTES: u64 = 4 << 10;

/// Lays out a 1024-page array of one repeated value with `write_u64s`
/// and asserts that the high-water rise of live heap bytes is a few
/// pages, the chunk tables, one write batch and the table of pages laid
/// out: the 1024 identical pages share one allocation, and the image
/// still maps (and reads back) all of them.
fn shared_pages_budget() {
    const PAGES: u64 = 1024;
    const BASE: u64 = 0x100_0000;
    let mut mem = Memory::new();
    ALLOC.reset_peak();
    let before = ALLOC.live_bytes();
    mem.write_u64s(BASE, std::iter::repeat_n(0x5EED_u64, (PAGES * 512) as usize));
    let rise = ALLOC.peak_live_bytes() - before;
    assert_eq!(mem.mapped_pages() as u64, PAGES);
    assert_eq!(mem.read_u64(BASE + PAGES * 4096 - 8), 0x5EED);
    let chunks = PAGES.div_ceil(512) + 1;
    let limit =
        4 * PAGE_HEAP_BYTES + chunks * CHUNK_HEAP_BYTES + WRITE_BATCH_BYTES + LAID_OUT_TABLE_BYTES;
    assert!(
        rise <= limit,
        "laying out {PAGES} identical pages raised live heap bytes by {rise}, over the {limit} \
         a few pages, {chunks} chunk tables, one write batch and the table account for \
         ({PAGES} pages of their own would be {})",
        PAGES * PAGE_HEAP_BYTES,
    );
    println!(
        "alloc budget OK (shared pages): {PAGES} identical pages raised live heap bytes by {} \
         KiB of the {} KiB a few pages, {chunks} chunk tables, one write batch and the table \
         allow",
        rise >> 10,
        limit >> 10,
    );
}

/// Heap acquisitions one warm store hit may make: the record's path
/// and text, and for a chip record its per-core list.
const SCALAR_HIT_OPS: u64 = 8;
const CHIP_HIT_OPS: u64 = 10;

/// Saves a real scalar record (`kangaroo` under Vector Runahead) and a
/// real 8-core chip record, as the `components` bench's `store` rows
/// do, and counts the heap acquisitions of one warm `load` and one
/// warm `load_chip`: the reader builds no tree and copies no string it
/// does not keep, so a hit costs a handful, not one per token.
fn store_hit_budget() {
    let w = hpcdb::kangaroo(Scale::Test);
    let (core, mcfg, ra) = (CoreConfig::table1(), MemConfig::table1(), RunaheadConfig::vector());
    let stats = Simulator::new(
        core.clone(),
        mcfg.clone(),
        ra.clone(),
        w.program.clone(),
        w.memory.clone(),
        &w.init_regs,
    )
    .run(20_000);
    let slots = (0..8)
        .map(|_| CoreSlot {
            ra: ra.clone(),
            program: w.program.clone(),
            memory: w.memory.clone(),
            init_regs: w.init_regs.clone(),
        })
        .collect();
    let run = Chip::new(ChipConfig::with_cores(8), core.clone(), mcfg.clone(), slots)
        .try_run(20_000)
        .expect("8-core chip run");
    let dir = std::env::temp_dir().join(format!("vr-alloc-budget-store-{}", std::process::id()));
    let store = ResultStore::open(&dir).expect("open the store");
    let scalar = point_key(&w, &core, &mcfg, &ra, 20_000);
    let chip = point_key(&w, &core, &mcfg, &ra, 20_001);
    store.save(scalar, "kangaroo-vr", &stats).expect("save");
    store.save_chip(chip, "kangaroo-vr-x8", &run).expect("save_chip");
    // Warm: the first loads may touch lazily built process state.
    assert_eq!(store.load(scalar), Some(stats), "the scalar record reads back");
    assert_eq!(store.load_chip(chip, 8), Some(run.clone()), "the chip record reads back");

    let count = |load: &dyn Fn() -> bool| {
        let before = ALLOC.heap_ops();
        assert!(load(), "a warm load is a hit");
        ALLOC.heap_ops() - before
    };
    let scalar_ops = count(&|| store.load(scalar).is_some());
    let chip_ops = count(&|| store.load_chip(chip, 8).is_some());
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        scalar_ops <= SCALAR_HIT_OPS && chip_ops <= CHIP_HIT_OPS,
        "a warm scalar hit made {scalar_ops} heap acquisitions (budget {SCALAR_HIT_OPS}), an \
         8-core chip hit {chip_ops} (budget {CHIP_HIT_OPS})"
    );
    println!(
        "alloc budget OK (store hit): a warm scalar hit made {scalar_ops} heap acquisitions \
         (budget {SCALAR_HIT_OPS}), an 8-core chip hit {chip_ops} (budget {CHIP_HIT_OPS})"
    );
}

fn main() {
    // ---- The store: a warm hit reads its record without a tree.
    store_hit_budget();

    // ---- Generation: `sssp_on` streams a weight per edge, NAS-CG a
    // matrix value per edge, each straight into the image.
    generation_budget(|g| gap::sssp_on(g, GraphPreset::Kron));
    generation_budget(hpcdb::nas_cg_on);
    // ---- Generation: identical pages of one bulk array share one page.
    shared_pages_budget();

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
