//! Micro-benchmarks of the simulator's building blocks: sparse
//! memory, functional emulator, branch predictor, cache hierarchy and
//! MSHR file. The rows only print — no baseline, no gate: they say
//! what one layer's operation costs, while whole-simulator speed is
//! measured by `benchmark/` and the paper's results come from the
//! `experiments` binary.
//!
//! Uses the offline `vr_bench::micro` harness (`harness = false`) so
//! the workspace carries no registry dependencies.

use std::sync::Arc;

use vr_bench::micro::{black_box, Runner};
use vr_campaign::{ChipSlot, ResultStore};
use vr_chip::{Chip, ChipConfig, CoreSlot};
use vr_core::wakeup::{CompletionQueue, InFlightStore, StoreRing, WakeupLists, NO_LINK};
use vr_core::{CoreConfig, RunaheadConfig, Simulator};
use vr_frontend::{DirectionPredictor, Tage};
use vr_isa::{Asm, Cpu, Memory, Reg, StoreOverlay};
use vr_mem::{
    Access, Cache, MemConfig, MemorySystem, MshrFile, Requestor, SharedLlc, SharedLlcConfig,
    StrideDetector,
};
use vr_obs::Json;
use vr_workloads::{graph::GraphPreset, Scale};

fn bench_memory() {
    let r = Runner::new("memory");
    let mut mem = Memory::new();
    mem.write_u64_slice(0x1000, &vec![7u64; 1 << 16]);
    let mut i = 0u64;
    r.bench("read_u64", || {
        i = (i + 8) & 0xffff;
        black_box(mem.read_u64(0x1000 + i))
    });
    let mut j = 0u64;
    r.bench("write_u64", || {
        j = (j + 8) & 0xffff;
        mem.write_u64(0x1000 + j, j);
    });
}

fn bench_emulator() {
    let r = Runner::new("emulator");
    // A tight arithmetic loop.
    let mut a = Asm::new();
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 1_000_000_000);
    let top = a.here();
    a.addi(Reg::T0, Reg::T0, 1);
    a.xor(Reg::T2, Reg::T0, Reg::T1);
    a.blt(Reg::T0, Reg::T1, top);
    a.halt();
    let prog = a.assemble();
    let mut cpu = Cpu::new();
    let mut mem = Memory::new();
    r.bench("step", || {
        cpu.step(&prog, &mut mem).expect("in bounds");
    });
}

fn bench_tage() {
    let r = Runner::new("tage");
    let mut t = Tage::default_8kb();
    let mut i = 0u64;
    r.bench("predict_and_train", || {
        i += 1;
        black_box(t.predict_and_train(i % 64, !i.is_multiple_of(7)))
    });
}

fn bench_memory_system() {
    let r = Runner::new("memory_system");
    let mut ms = MemorySystem::new(MemConfig::table1());
    let mut now = 0u64;
    ms.access(0x1000, Access::Load, Requestor::Main, 1, 0).expect("warm-up access");
    r.bench("l1_hit", || {
        now += 1;
        black_box(ms.access(0x1000, Access::Load, Requestor::Main, 1, now))
    });
    let mut addr = 0u64;
    r.bench("streaming_misses", || {
        now += 300;
        addr += 64;
        black_box(ms.access(0x100_0000 + addr, Access::Load, Requestor::Main, 2, now))
    });
}

/// The two per-access scans of the hierarchy (DESIGN.md §12): a probe
/// that misses a full 16-way set reads every way of the flat array, and
/// an `expire` before the earliest fill is due reads one cached time.
fn bench_cache_mshr() {
    let r = Runner::new("cache");
    let cfg = MemConfig::table1().l3;
    let mut l3 = Cache::new(cfg);
    let lines = cfg.size_bytes / cfg.line_bytes;
    for i in 0..lines {
        l3.fill(i * cfg.line_bytes, None);
    }
    let mut a = 0u64;
    r.bench("probe_l3_miss", || {
        // One line past the filled range, rotating over the sets.
        a = (a + cfg.line_bytes) % cfg.size_bytes;
        black_box(l3.probe(cfg.size_bytes + a))
    });

    let r = Runner::new("mshr");
    let mut m = MshrFile::new(24);
    for i in 0..24u64 {
        m.allocate(i * 64, 0, u64::MAX / 2 + i);
    }
    let mut now = 0u64;
    r.bench("expire_nothing_due", || {
        now += 1;
        m.expire(black_box(now));
        black_box(m.outstanding())
    });
}

/// One train of the Table-1 stride table, which every committed load
/// pays. Cycling over `n` PCs in turn always trains the LRU entry: with
/// 16 live PCs each train is a hit at the far end of the scan, with 17
/// each is a miss that evicts.
fn bench_stride() {
    let r = Runner::new("stride");
    for n in [16u64, 17] {
        let mut d = StrideDetector::new(MemConfig::table1().stride_params.0);
        let mut i = 0u64;
        r.bench(&format!("train_mru_{n}_live_pcs"), || {
            i += 1;
            black_box(d.train(i % n, 0x1000 * (i % n) + 8 * (i / n)))
        });
    }
}

/// The granule [`StoreOverlay`] (DESIGN.md §12): the speculative
/// store-forwarding table every runahead engine consults on every
/// load and updates on every store.
fn bench_store_overlay() {
    let r = Runner::new("store_overlay");
    let mut mem = Memory::new();
    mem.write_u64_slice(0x1000, &vec![3u64; 1 << 12]);

    // Steady-state writes: a working set of 256 granules, revisited —
    // the open-addressed table stays at its warm size.
    let mut ov = StoreOverlay::new();
    let mut i = 0u64;
    r.bench("store_u64_warm", || {
        i = (i + 8) & 0x7ff;
        ov.store(0x1000 + i, 8, i);
    });
    let mut j = 0u64;
    r.bench("load_u64_hit", || {
        j = (j + 8) & 0x7ff;
        black_box(ov.load(&mem, 0x1000 + j, 8))
    });
    let mut k = 0u64;
    r.bench("load_u64_miss", || {
        // Addresses never stored: falls through to backing memory.
        k = (k + 8) & 0x7ff;
        black_box(ov.load(&mem, 0x4000 + k, 8))
    });
    // Episode-boundary pattern: fill a modest overlay, then the O(1)
    // generation-bump clear (the per-episode reset path).
    let mut ov2 = StoreOverlay::new();
    let mut n = 0u64;
    r.bench("store16_then_clear", || {
        for s in 0..16u64 {
            ov2.store(0x2000 + ((n + s * 8) & 0xfff), 8, s);
        }
        n += 8;
        ov2.clear();
    });

    // Lane-fork cost, old vs new (DESIGN.md §14). The pre-SoA engine
    // copied the scan overlay into each of K lane overlays per batch;
    // the SoA engine keeps per-lane *deltas* over a shared frozen base
    // and forks with an O(1) clear.
    let mut base = StoreOverlay::new();
    for g in 0..64u64 {
        base.store(0x3000 + g * 8, 8, g);
    }
    let mut lane_full = StoreOverlay::new();
    r.bench("lane_fork_copy_from", || {
        lane_full.copy_from(&base);
    });
    let mut lane_delta = StoreOverlay::new();
    lane_delta.store(0x3000, 8, 1);
    r.bench("lane_fork_delta_clear", || {
        lane_delta.clear();
        lane_delta.store(0x3000, 8, 1);
    });

    // Batched layered lookup: K gather loads resolved against
    // delta → base → memory without ever materializing a merged
    // overlay — the per-level load path of the SoA engine.
    let mut delta = StoreOverlay::new();
    for g in 0..8u64 {
        delta.store(0x3000 + g * 64, 8, g);
    }
    let mut m = 0u64;
    r.bench("load_layered_delta_hit", || {
        m = (m + 64) & 0x1ff;
        black_box(delta.load_layered(&base, &mem, 0x3000 + m, 8))
    });
    let mut q = 0u64;
    r.bench("load_layered_base_hit", || {
        q = (q + 8) & 0x1ff;
        black_box(delta.load_layered(&base, &mem, 0x3008 + q, 8))
    });
    r.bench("load_layered_x8_vs_load_x8", || {
        let mut acc = 0u64;
        for l in 0..8u64 {
            acc ^= delta.load_layered(&base, &mem, 0x3000 + l * 8, 8);
        }
        black_box(acc)
    });
}

/// SWAR lane-mask scans vs an index-vector representation
/// (DESIGN.md §14): the per-chain-instruction "for each active lane"
/// dispatch of the vector engine. The mask form is a handful of
/// `trailing_zeros` loops over four words; the vector form is what
/// the pre-SoA engine effectively did (iterate a list of lane
/// structs, testing a per-lane bool).
fn bench_lane_masks() {
    let r = Runner::new("lane_masks");
    const WORDS: usize = 4;

    let scan = |words: &[u64; WORDS]| {
        let mut acc = 0usize;
        for (wi, &w) in words.iter().enumerate() {
            let mut rest = w;
            while rest != 0 {
                acc += wi * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
            }
        }
        acc
    };

    // Dense: all 64 lanes of a full batch live (the steady state).
    let dense_mask: [u64; WORDS] = [u64::MAX, 0, 0, 0];
    let dense_vec: Vec<usize> = (0..64).collect();
    let dense_bools: Vec<bool> = vec![true; 64];
    r.bench("scan64_mask", || black_box(scan(&dense_mask)));
    r.bench("scan64_vec", || black_box(dense_vec.iter().copied().sum::<usize>()));
    r.bench("scan64_bools", || {
        let mut acc = 0usize;
        for (l, &alive) in dense_bools.iter().enumerate() {
            if alive {
                acc += l;
            }
        }
        black_box(acc)
    });

    // Sparse: 8 survivors after heavy divergence.
    let mut sparse_mask = [0u64; WORDS];
    let sparse_vec: Vec<usize> = (0..64).step_by(8).collect();
    for &l in &sparse_vec {
        sparse_mask[l / 64] |= 1u64 << (l % 64);
    }
    let mut sparse_bools = [false; 64];
    for &l in &sparse_vec {
        sparse_bools[l] = true;
    }
    r.bench("scan8of64_mask", || black_box(scan(&sparse_mask)));
    r.bench("scan8of64_bools", || {
        let mut acc = 0usize;
        for (l, &alive) in sparse_bools.iter().enumerate() {
            if alive {
                acc += l;
            }
        }
        black_box(acc)
    });

    // Mask algebra: the whole-group operations (poison, retire) that
    // replaced per-lane bool loops.
    let mut a = dense_mask;
    let b = sparse_mask;
    r.bench("mask_and_not", || {
        for i in 0..WORDS {
            a[i] &= !b[i];
        }
        black_box(a);
        a = dense_mask;
    });
}

/// The intrusive [`WakeupLists`] (DESIGN.md §12): two stores per
/// dependence-edge insert, one load per waiter on drain — the
/// scheduler's per-dispatch and per-completion hot paths.
fn bench_wakeup_lists() {
    let r = Runner::new("wakeup_lists");
    const SLOTS: usize = 512;
    let mut w = WakeupLists::new(SLOTS);

    // Dispatch-side: register a (consumer, operand) edge, then drain
    // that producer so the structure stays empty across iterations
    // (the insert is the measured part; the drain is O(1) here).
    let mut c = 0usize;
    r.bench("insert_drain1", || {
        c = (c + 1) & (SLOTS - 1);
        let p = (c * 7 + 1) & (SLOTS - 1);
        w.insert(p, c, c & 1);
        let l = w.drain_head(p);
        black_box(l);
    });

    // Completion-side: drain a producer with an 8-deep waiter chain
    // (a high-fanout register like a loop induction variable).
    let mut p2 = 0usize;
    r.bench("insert8_drain8", || {
        p2 = (p2 + 1) & (SLOTS - 1);
        for c in 0..8usize {
            w.insert(p2, (p2 + c + 1) & (SLOTS - 1), c & 1);
        }
        let mut l = w.drain_head(p2);
        let mut woke = 0u32;
        while l != NO_LINK {
            woke += 1;
            l = w.take_next(l);
        }
        black_box(woke);
    });

    // Flush-side: the O(slots) head reset that runs on every pipeline
    // flush (runahead exit), amortized over whole episodes.
    r.bench("clear", || {
        w.insert(3, 4, 0);
        w.clear();
    });
}

/// The issue stage's other two lookups (DESIGN.md §9, §12): which
/// older in-flight store a load forwards from, and which producers
/// complete this cycle.
fn bench_sched() {
    let r = Runner::new("sched");

    // A load at the young end of a full 350-entry window with 8 stores
    // in flight beneath it, none to its address (the common verdict):
    // the ring scans 8 entries where the ROB walk visited 350 slots.
    let mut ring = StoreRing::new(CoreConfig::table1().sq);
    for i in 0..8u64 {
        ring.push(InFlightStore { seq: i * 40, addr: 0x1000 + i * 64, bytes: 8 });
    }
    let mut a = 0u64;
    r.bench("forward_lookup", || {
        a = (a + 8) & 0x3f;
        black_box(ring.forwarder(350, 0x8000 + a, 8))
    });

    // One event scheduled and one drained per iteration, four cycles
    // apart (an L1 hit): both ends on the wheel.
    const SLOTS: usize = 512;
    let mut q = CompletionQueue::new(SLOTS);
    let (mut now, mut seq) = (0u64, 0u64);
    r.bench("completion_push_pop_near", || {
        now += 1;
        seq += 1;
        q.push(now, now + 4, seq);
        black_box(q.pop_due(now))
    });

    // The same, 200 cycles apart at one event per 8 cycles (DRAM-bound
    // loads): both ends on the far heap, ~25 events deep.
    let mut q = CompletionQueue::new(SLOTS);
    r.bench("completion_push_pop_far", || {
        now += 8;
        seq += 1;
        q.push(now, now + 200, seq);
        black_box(q.pop_due(now))
    });
}

/// The shared-LLC broker hot path (DESIGN.md §17): one `access_line`
/// through an owned `&mut` (the install/take protocol the chip uses),
/// which the chip pays once per *core memory access*.
fn bench_shared_llc() {
    let r = Runner::new("shared_llc");
    let mem_cfg = MemConfig::table1();
    let chip_cfg = ChipConfig::with_cores(4);
    let cfg = SharedLlcConfig {
        l3: mem_cfg.l3,
        dram_min_latency: mem_cfg.dram_min_latency,
        dram_cycles_per_line: mem_cfg.dram_cycles_per_line,
        banks: chip_cfg.llc_banks,
        bank_service_cycles: chip_cfg.bank_service_cycles,
        shared_mshrs: chip_cfg.shared_mshrs,
    };
    let line = cfg.l3.line_bytes;
    // Warm a small per-core working set so the steady-state accesses
    // below are all LLC hits (the common case after the first sweep).
    let warm = |llc: &mut SharedLlc| {
        for core in 0..4u32 {
            for i in 0..64u64 {
                llc.access_line(core, 0x10_0000 + i * line, u64::MAX / 2);
            }
        }
    };

    let mut owned = Box::new(SharedLlc::new(cfg));
    warm(&mut owned);
    let mut now = u64::MAX / 2;
    let mut i = 0u64;
    r.bench("hit_owned", || {
        now += 100;
        i = (i + 1) & 0x3f;
        black_box(owned.access_line((i & 3) as u32, 0x10_0000 + i * line, now))
    });

    // The miss path for scale: DRAM queueing + MSHR pool bookkeeping
    // dominate here.
    let mut cold = Box::new(SharedLlc::new(cfg));
    let mut addr = 0u64;
    let mut now3 = u64::MAX / 2;
    r.bench("streaming_miss_owned", || {
        now3 += 400;
        addr += line;
        black_box(cold.access_line(0, 0x4000_0000 + addr, now3))
    });
}

/// One round of a 4-core VR chip (DESIGN.md §17's `Chip::step`):
/// min-clock selection, broker install/take, and the per-core
/// `Simulator::advance` (skip, cheap engine step, or full tick). The
/// chip is rebuilt when a run completes; at thousands of rounds per
/// run the rebuild amortizes to noise.
///
/// `run_8core_vr` is a whole run of an 8-core chip, the largest size
/// the benchmark's `chip_scale` sweeps. The two 1-core rows put the
/// round loop's cost at N = 1 on record: a 1-core chip and a bare
/// `Simulator` execute the same `advance` calls (`n1_equivalence` pins
/// the stats bit-identical), so the gap between them is the min-clock
/// scan and telemetry per round.
fn bench_chip_step() {
    let r = Runner::new("chip");
    const INSTS: u64 = 20_000;
    let w = vr_workloads::hpcdb::kangaroo(Scale::Test);
    let mk = |cores: usize| {
        let slots = (0..cores)
            .map(|_| CoreSlot {
                ra: RunaheadConfig::vector(),
                program: w.program.clone(),
                memory: w.memory.clone(),
                init_regs: w.init_regs.clone(),
            })
            .collect();
        Chip::new(ChipConfig::with_cores(cores), CoreConfig::table1(), MemConfig::table1(), slots)
    };
    let mut chip = mk(4);
    r.bench("step_4core_vr", || {
        if !chip.step(INSTS).expect("chip round") {
            chip = mk(4);
        }
    });
    r.bench("run_8core_vr", || black_box(mk(8).try_run(INSTS).expect("8-core chip run")));
    r.bench("run_1core_vr_chip", || black_box(mk(1).try_run(INSTS).expect("1-core chip run")));
    r.bench("run_1core_vr_bare_sim", || {
        let mut sim = Simulator::new(
            CoreConfig::table1(),
            MemConfig::table1(),
            RunaheadConfig::vector(),
            w.program.clone(),
            w.memory.clone(),
            &w.init_regs,
        );
        black_box(sim.try_run(INSTS).expect("standalone run"))
    });
}

/// What content addressing costs (DESIGN.md "What a fingerprint
/// costs"): one pass over a 16 MiB image the first time it is seen,
/// a load every time after, and `point_key` on top of the latter. An
/// 8-core chip point hashes eight slots' listings, images and configs
/// (Kangaroo on even cores, Camel on odd ones).
fn bench_fingerprint() {
    let r = Runner::new("fingerprint");
    let mut rng = vr_isa::SplitMix64::new(0x5EED);
    let words: Vec<u64> = (0..(16 << 20) / 8).map(|_| rng.next_u64()).collect();
    let mut mem = Memory::new();
    mem.write_u64_slice(0x10_0000, &words);
    let mut v = 0u64;
    r.bench("digest_first_sight_16MiB", || {
        // Any write drops the memo, so this digest walks the image.
        v += 1;
        mem.write_u64(0x10_0000, v);
        black_box(mem.digest())
    });
    r.bench("digest_memo_hit", || black_box(mem.digest()));
    let w = vr_workloads::hpcdb::kangaroo(Scale::Test);
    let (core, mcfg, ra) = (CoreConfig::table1(), MemConfig::table1(), RunaheadConfig::vector());
    black_box(w.memory.digest());
    r.bench("point_key_memoised_image", || {
        black_box(vr_campaign::point_key(&w, &core, &mcfg, &ra, 200_000))
    });
    let pair = [Arc::new(w), Arc::new(vr_workloads::hpcdb::camel(Scale::Test))];
    let slots: Vec<ChipSlot> =
        (0..8).map(|i| ChipSlot { workload: Arc::clone(&pair[i % 2]), ra: ra.clone() }).collect();
    for w in &pair {
        black_box(w.memory.digest());
    }
    let chip = ChipConfig::with_cores(8);
    r.bench("chip_point_key_8core", || {
        black_box(vr_campaign::chip_point_key(&chip, &core, &mcfg, &slots, 200_000))
    });
}

/// What a result-store hit costs (DESIGN.md "What a hit costs"): a
/// load reads, parses, checksums and decodes one record. The scalar
/// record holds a real `SimStats` (~1.4 KB), the chip record a whole
/// 8-core `ChipRun` (~12 KB); `parse_chip_record` is the JSON reader's
/// share of the latter.
fn bench_store() {
    let w = vr_workloads::hpcdb::kangaroo(Scale::Test);
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

    let dir = std::env::temp_dir().join(format!("vr-components-store-{}", std::process::id()));
    let store = ResultStore::open(&dir).expect("open the store");
    let scalar = vr_campaign::point_key(&w, &core, &mcfg, &ra, 20_000);
    let chip = vr_campaign::point_key(&w, &core, &mcfg, &ra, 20_001);
    store.save(scalar, "kangaroo-vr", &stats).expect("save");
    store.save_chip(chip, "kangaroo-vr-x8", &run).expect("save_chip");

    let r = Runner::new("store");
    r.bench("load_scalar", || black_box(store.load(scalar).expect("hit")));
    r.bench("load_chip_8core", || black_box(store.load_chip(chip, 8).expect("hit")));
    let text = std::fs::read_to_string(store.records_dir().join(format!("{}.json", chip.hex())))
        .expect("chip record");
    Runner::new("json")
        .bench("parse_chip_record", || black_box(Json::parse(&text).expect("parses")));
    std::fs::remove_dir_all(&dir).ok();
}

/// What generating a graph costs: `kronecker(16, 16, seed)` draws 1 Mi
/// edges of 16 levels each and counting-sorts them into a CSR, split
/// over the CPUs as the paper-scale inputs are.
fn bench_graph() {
    let r = Runner::new("graph");
    r.bench("kronecker_16_16", || black_box(vr_workloads::graph::kronecker(16, 16, 24301)));
}

/// The two costs a copy-on-write image trades (DESIGN.md "What a point
/// costs before it simulates"): cloning the Paper-scale `bfs_KR` image
/// bumps one count per 2 MiB chunk, and the first store to a page the
/// clone still shares copies that page (and, once per chunk, the
/// chunk's page table).
fn bench_image_copy() {
    let r = Runner::new("image");
    let g = GraphPreset::Kron.generate(Scale::Paper);
    let image = vr_workloads::gap::bfs_on(&g, GraphPreset::Kron).memory;
    r.bench("memory_clone", || black_box(image.clone()));
    // `row_ptr` and `col_idx` are dense from the arena base up.
    let shared_pages = g.footprint_bytes() / 4096;
    let (mut clone, mut page) = (image.clone(), 0);
    r.bench("first_store_to_shared_page", || {
        if page == shared_pages {
            (clone, page) = (image.clone(), 0);
        }
        clone.write_u64(vr_workloads::Arena::BASE + 4096 * page, page);
        page += 1;
    });
}

fn main() {
    bench_memory();
    bench_fingerprint();
    bench_store();
    bench_image_copy();
    bench_graph();
    bench_emulator();
    bench_tage();
    bench_memory_system();
    bench_cache_mshr();
    bench_stride();
    bench_store_overlay();
    bench_lane_masks();
    bench_wakeup_lists();
    bench_sched();
    bench_shared_llc();
    bench_chip_step();
}
