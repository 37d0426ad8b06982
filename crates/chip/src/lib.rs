#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # vr-chip
//!
//! Multi-core chip simulation: N per-core [`vr_core::Simulator`]s
//! stepped by a chip-level clock against a shared banked LLC + DRAM
//! broker ([`vr_mem::SharedLlc`]). This is the contention regime the
//! Vector Runahead paper never shows — VR's value proposition is
//! memory-level parallelism, which is precisely what degrades when N
//! cores fight over shared LLC banks, a finite shared MSHR pool and
//! one DRAM channel.
//!
//! ## Clocking model
//!
//! Every core is moved by the one stepping kernel,
//! [`vr_core::Simulator::advance`] — the same call, in the same loop
//! shape, that [`vr_core::Simulator::try_run`] is. A chip round
//! ([`Chip::step`]) finds the **minimum** clock over the unfinished
//! cores and calls `advance` once on each core at that clock, in
//! core-index order — the arrival (= age) order the shared broker's
//! FCFS arbitration serves. A core that proves a quiescent window
//! skips to its horizon (next completion event, dispatch gate,
//! runahead-engine event, watchdog deadline), bulk-applying exactly
//! the per-cycle stats its no-op ticks would have recorded, and then
//! sleeps: it is ahead of the minimum, so no round touches it until
//! the chip catches up. A core that may act takes one real tick (or
//! one cheap vector-engine step). Because a quiescent window contains
//! no broker arrivals by construction, and only minimum-clock cores
//! ever access the broker, every arrival at the shared banks happens
//! at the same timestamp, in the same order, as in a tick-by-tick
//! walk of all cores (pinned by the golden chip-stats tests; DESIGN.md
//! §17 has the full equivalence argument).
//!
//! There is one loop for every N. An N = 1 chip has no shared LLC, so
//! its core is unattached and each round is exactly one iteration of
//! `Simulator::try_run`'s loop: the reported [`SimStats`] are
//! **bit-identical** to a standalone run (pinned by a differential
//! test over every golden-stats point).
//!
//! ## LLC ownership (no lock)
//!
//! Cores are stepped on one thread in deterministic core-index order,
//! so the broker needs no `Mutex`: the chip *owns* the
//! [`SharedLlc`] in a `Box` and moves it into the stepping core's
//! hierarchy before its `advance`, taking it back after — every
//! access is an uncontended `&mut`. There is no parallel stepping:
//! DESIGN.md §17 records the measurement that retired it.
//!
//! Each core independently enters and leaves runahead episodes;
//! per-core [`SimStats`] stay separate and [`ChipStats`] aggregates
//! the chip-level contention counters.
//!
//! ```no_run
//! use vr_chip::{Chip, ChipConfig, CoreSlot};
//! use vr_core::{CoreConfig, RunaheadConfig};
//! use vr_isa::{Asm, Memory};
//! use vr_mem::MemConfig;
//!
//! let mut a = Asm::new();
//! a.halt();
//! let slot = CoreSlot {
//!     ra: RunaheadConfig::vector(),
//!     program: a.assemble(),
//!     memory: Memory::new(),
//!     init_regs: vec![],
//! };
//! let mut chip = Chip::new(
//!     ChipConfig::with_cores(4),
//!     CoreConfig::table1(),
//!     MemConfig::table1(),
//!     vec![slot.clone(), slot.clone(), slot.clone(), slot],
//! );
//! let run = chip.try_run(10_000).unwrap();
//! println!("bank conflicts: {}", run.chip.bank_conflicts);
//! ```

use vr_core::{Advance, CoreConfig, RunaheadConfig, SimError, SimStats, Simulator, StopFlag};
use vr_isa::{Memory, Program, Reg};
use vr_mem::{MemConfig, SharedLlc, SharedLlcConfig};
use vr_obs::{Fnv64, Json};

/// Chip-level configuration: core count plus the shared-LLC knobs
/// that have no per-core analogue. The shared L3 geometry and DRAM
/// timing are taken from the (common) per-core [`MemConfig`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChipConfig {
    /// Number of cores on the chip.
    pub cores: usize,
    /// Number of shared-LLC banks.
    pub llc_banks: usize,
    /// Cycles each bank is busy per request (single-ported service
    /// time; the arbitration quantum).
    pub bank_service_cycles: u64,
    /// Shared MSHR pool: chip-wide cap on LLC misses outstanding to
    /// DRAM. With Table 1's 24 per-core MSHRs, 8 VR cores can want
    /// ~192 outstanding lines — a smaller shared pool is the global
    /// budget that makes one core's burst reject another's misses.
    pub shared_mshrs: usize,
}

impl ChipConfig {
    /// A chip with `cores` cores and the default shared-LLC knobs
    /// (8 banks, 4-cycle bank service, 64 shared MSHRs).
    pub fn with_cores(cores: usize) -> ChipConfig {
        ChipConfig { cores, llc_banks: 8, bank_service_cycles: 4, shared_mshrs: 64 }
    }

    /// Folds every field into `h` (campaign cache key hook). The
    /// exhaustive destructuring makes adding a field without extending
    /// the fingerprint a compile error, and the delta test asserts
    /// every field actually perturbs the hash.
    pub fn fingerprint(&self, h: &mut Fnv64) {
        let ChipConfig { cores, llc_banks, bank_service_cycles, shared_mshrs } = self;
        h.write_str("ChipConfig");
        h.write_u64(*cores as u64);
        h.write_u64(*llc_banks as u64);
        h.write_u64(*bank_service_cycles);
        h.write_u64(*shared_mshrs as u64);
    }
}

/// Chip-level aggregate statistics: the contention counters from the
/// shared broker plus the chip's wall-clock cycle count. Per-core
/// pipeline statistics live in each core's [`SimStats`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ChipStats {
    /// Chip cycles to drain every core's budget (the max over cores).
    pub cycles: u64,
    /// Shared-LLC requests that waited behind a *different* core at
    /// their bank.
    pub bank_conflicts: u64,
    /// Total cycles requests spent waiting for a busy bank.
    pub arbitration_stall_cycles: u64,
    /// LLC misses rejected because the shared MSHR pool was full.
    pub shared_mshr_rejections: u64,
    /// Shared-LLC hits.
    pub llc_hits: u64,
    /// Shared-LLC misses (DRAM fetches).
    pub llc_misses: u64,
    /// Dirty shared-LLC victims written back to DRAM.
    pub dram_writebacks: u64,
}

/// One core's workload assignment: the program/memory image, its
/// initial registers, and the runahead technique this core runs
/// (cores can mix VR-on and VR-off).
#[derive(Clone, Debug)]
pub struct CoreSlot {
    /// Runahead configuration for this core.
    pub ra: RunaheadConfig,
    /// The program image.
    pub program: Program,
    /// Initial functional memory contents.
    pub memory: Memory,
    /// Initial architectural register values.
    pub init_regs: Vec<(Reg, u64)>,
}

/// Result of a chip run: per-core stats (index = core) plus the
/// chip-level contention aggregate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChipRun {
    /// Each core's sealed [`SimStats`], in core order.
    pub per_core: Vec<SimStats>,
    /// Chip-level aggregate.
    pub chip: ChipStats,
}

/// Chip-level execution telemetry: how the chip *simulated*, never
/// what it simulated. These counters are always on (plain u64 bumps on
/// paths that run anyway) and are deliberately **not** part of
/// [`ChipRun`] / [`ChipStats`], so stored campaign records and cache
/// fingerprints are byte-identical whether or not a consumer reads
/// them — the same discipline as the PR 3 episode telemetry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChipTelemetry {
    /// Per-core fast-forward windows taken (a quiescent core bulk-
    /// advancing through its proven no-op window instead of ticking).
    pub ff_windows: u64,
    /// Core-cycles those windows skipped — lockstep ticks that were
    /// never executed.
    pub ff_cycles_skipped: u64,
    /// Cheap vector-engine advances taken in place of full pipeline
    /// ticks (live episode, every other phase proven frozen): one cycle
    /// each on a shared-LLC chip, a whole window each at N = 1.
    pub episode_steps: u64,
    /// Broker installs into a stepping core (the de-mutexed analogue
    /// of lock acquisitions: one per core-step that could touch the
    /// shared LLC).
    pub broker_installs: u64,
    /// Always 0: nothing increments it since parallel stepping was
    /// deleted (DESIGN.md §17). The field exists **only** because
    /// `benchmark/src/chip_wl.rs` reads it and the PR that removed
    /// parallel stepping was not allowed to touch `benchmark/`; delete
    /// it together with that read.
    pub par_cycles: u64,
    /// Horizon-stall census, per core: real (possibly-acting) ticks
    /// this core took — how often it held the chip's minimum clock
    /// back instead of skipping ahead.
    pub horizon_blocks: Vec<u64>,
    /// Per core: fast-forward windows this core took.
    pub core_ff_windows: Vec<u64>,
}

impl ChipTelemetry {
    fn new(cores: usize) -> ChipTelemetry {
        ChipTelemetry {
            horizon_blocks: vec![0; cores],
            core_ff_windows: vec![0; cores],
            ..ChipTelemetry::default()
        }
    }

    /// The telemetry as a JSON object (the `chip_ff` attachment of
    /// `fig-chip --json`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ff_windows".into(), Json::U64(self.ff_windows)),
            ("ff_cycles_skipped".into(), Json::U64(self.ff_cycles_skipped)),
            ("episode_steps".into(), Json::U64(self.episode_steps)),
            ("broker_installs".into(), Json::U64(self.broker_installs)),
            (
                "horizon_blocks".into(),
                Json::Arr(self.horizon_blocks.iter().map(|&v| Json::U64(v)).collect()),
            ),
            (
                "core_ff_windows".into(),
                Json::Arr(self.core_ff_windows.iter().map(|&v| Json::U64(v)).collect()),
            ),
        ])
    }
}

/// N cores + the shared LLC broker, advanced by one chip-level clock.
#[derive(Debug)]
pub struct Chip {
    cfg: ChipConfig,
    cores: Vec<Simulator>,
    /// `None` for N = 1: the single core keeps its private L3/DRAM so
    /// the path is the standalone simulator's, bit for bit. For N ≥ 2
    /// the chip owns the broker and threads it through the stepping
    /// core (uncontended `&mut`, no lock); it is only ever absent from
    /// this slot *during* a core-step.
    shared: Option<Box<SharedLlc>>,
    telemetry: ChipTelemetry,
}

impl Chip {
    /// Builds a chip of `chip.cores` cores sharing one `core_cfg` /
    /// `mem_cfg` (per-slot runahead configs may differ). For N ≥ 2
    /// every core's L2-miss traffic is routed through a shared banked
    /// LLC; for N = 1 the core keeps its private hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `slots.len() != chip.cores` or `chip.cores == 0`.
    pub fn new(
        chip: ChipConfig,
        core_cfg: CoreConfig,
        mem_cfg: MemConfig,
        slots: Vec<CoreSlot>,
    ) -> Chip {
        assert!(chip.cores > 0, "a chip needs at least one core");
        assert_eq!(slots.len(), chip.cores, "one workload slot per core");
        let shared = (chip.cores > 1).then(|| {
            Box::new(SharedLlc::new(SharedLlcConfig {
                l3: mem_cfg.l3,
                dram_min_latency: mem_cfg.dram_min_latency,
                dram_cycles_per_line: mem_cfg.dram_cycles_per_line,
                banks: chip.llc_banks,
                bank_service_cycles: chip.bank_service_cycles,
                shared_mshrs: chip.shared_mshrs,
            }))
        });
        let cores: Vec<Simulator> = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let mut sim = Simulator::new(
                    core_cfg.clone(),
                    mem_cfg.clone(),
                    s.ra,
                    s.program,
                    s.memory,
                    &s.init_regs,
                );
                if shared.is_some() {
                    sim.attach_shared_llc(i as u32);
                }
                sim
            })
            .collect();
        let telemetry = ChipTelemetry::new(cores.len());
        Chip { cfg: chip, cores, shared, telemetry }
    }

    /// The chip configuration in use.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Core `i`'s simulator (committed state, telemetry, …).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn core(&self, i: usize) -> &Simulator {
        &self.cores[i]
    }

    /// Arms a cooperative deadline on every core: once tripped, the
    /// next chip cycle aborts with `SimError::Deadline`.
    pub fn set_stop_flag(&mut self, flag: StopFlag) {
        for core in &mut self.cores {
            core.set_stop_flag(flag.clone());
        }
    }

    /// Validates every core's configuration (done once by
    /// [`Chip::try_run`]; exposed for callers driving [`Chip::step`]
    /// directly).
    ///
    /// # Errors
    ///
    /// Returns the first core's `SimError::BadConfig`.
    pub fn validate(&self) -> Result<(), SimError> {
        for core in &self.cores {
            core.validate()?;
        }
        Ok(())
    }

    /// One chip round (the module docs' clocking model): every
    /// unfinished core (not yet at `max_insts` committed instructions,
    /// not halted) sitting at the chip's **minimum** core clock takes
    /// one [`Simulator::advance`], in core-index order with the owned
    /// broker moved in and out. A round therefore moves the chip clock
    /// by anything from zero cycles (another core still at the minimum)
    /// to a whole quiescent window. Returns `false` once every core is
    /// finished. Allocation-free — the alloc gate drives a 4-core chip
    /// through this directly.
    ///
    /// # Errors
    ///
    /// Any core's `SimError` (deadlock, deadline, invariant) aborts
    /// the whole chip run.
    pub fn step(&mut self, max_insts: u64) -> Result<bool, SimError> {
        let unfinished = self.cores.iter().filter(|c| !c.finished(max_insts));
        let Some(t) = unfinished.map(Simulator::cycle).min() else {
            return Ok(false); // every core finished
        };
        for i in 0..self.cores.len() {
            let core = &mut self.cores[i];
            if core.finished(max_insts) || core.cycle() != t {
                continue;
            }
            let advanced = match self.shared.take() {
                Some(llc) => {
                    core.install_shared_llc(llc);
                    self.telemetry.broker_installs += 1;
                    let r = core.advance();
                    self.shared = Some(core.take_shared_llc());
                    r
                }
                // A multi-core chip always holds its broker between
                // core-steps; its absence means an earlier step left it
                // inside a core (install/take imbalance) — a structured
                // error instead of a panic deep in the hierarchy.
                None if self.cfg.cores > 1 => {
                    return Err(SimError::Invariant {
                        cycle: t,
                        what: "chip shared-LLC broker missing (install/take imbalance)".into(),
                    })
                }
                // N = 1: private L3/DRAM, no broker to install.
                None => core.advance(),
            };
            match advanced? {
                Advance::Skipped(h) => {
                    self.telemetry.ff_windows += 1;
                    self.telemetry.ff_cycles_skipped += h - t;
                    self.telemetry.core_ff_windows[i] += 1;
                }
                Advance::EngineStepped => {
                    self.telemetry.episode_steps += 1;
                    self.telemetry.horizon_blocks[i] += 1;
                }
                Advance::Ticked => self.telemetry.horizon_blocks[i] += 1,
            }
        }
        Ok(self.cores.iter().any(|c| !c.finished(max_insts)))
    }

    /// Chip-level execution telemetry (fast-forward windows, broker
    /// installs, horizon-stall census). Always on; never part of
    /// [`ChipRun`], so results are bit-identical whether or not it is
    /// read.
    pub fn telemetry(&self) -> &ChipTelemetry {
        &self.telemetry
    }

    /// Runs every core to its `max_insts` budget (or halt) and seals
    /// the statistics. Calling again with a larger budget continues
    /// from the current state. For N = 1 that resumption is exactly
    /// [`vr_core::Simulator::try_run`]'s (bit-identical to one shot);
    /// for N ≥ 2 a pause freezes each core at a *different* chip
    /// cycle (whenever it hit the intermediate budget), so resuming
    /// yields a valid chip schedule that need not match the
    /// uninterrupted one — chip campaigns therefore always run each
    /// point in one shot.
    ///
    /// # Errors
    ///
    /// The first core `SimError` aborts the run (partial state is
    /// kept; the caller may inspect cores but the run has no stats).
    pub fn try_run(&mut self, max_insts: u64) -> Result<ChipRun, SimError> {
        self.validate()?;
        while self.step(max_insts)? {}
        let per_core: Vec<SimStats> = self.cores.iter_mut().map(Simulator::seal_stats).collect();
        Ok(ChipRun { per_core, chip: self.chip_stats() })
    }

    /// The chip-level aggregate at this instant: shared-broker
    /// contention counters plus the slowest core's cycle count.
    pub fn chip_stats(&self) -> ChipStats {
        let cycles = self.cores.iter().map(Simulator::cycle).max().unwrap_or(0);
        match &self.shared {
            None => ChipStats { cycles, ..ChipStats::default() },
            Some(llc) => {
                let s = *llc.stats();
                ChipStats {
                    cycles,
                    bank_conflicts: s.bank_conflicts,
                    arbitration_stall_cycles: s.arbitration_stall_cycles,
                    shared_mshr_rejections: s.shared_mshr_rejections,
                    llc_hits: s.llc_hits,
                    llc_misses: s.llc_misses,
                    dram_writebacks: s.dram_writebacks,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_workloads::graph::GraphPreset;
    use vr_workloads::{gap, Scale};

    fn slot(ra: RunaheadConfig) -> CoreSlot {
        let graph = GraphPreset::Kron.generate(Scale::Test);
        let w = gap::bfs_on(&graph, GraphPreset::Kron);
        CoreSlot { ra, program: w.program, memory: w.memory, init_regs: w.init_regs }
    }

    #[test]
    fn n1_chip_matches_standalone_simulator() {
        let graph = GraphPreset::Kron.generate(Scale::Test);
        let w = gap::bfs_on(&graph, GraphPreset::Kron);
        let mut sim = Simulator::new(
            CoreConfig::table1(),
            MemConfig::table1(),
            RunaheadConfig::vector(),
            w.program.clone(),
            w.memory.clone(),
            &w.init_regs,
        );
        let want = sim.try_run(10_000).unwrap();
        let mut chip = Chip::new(
            ChipConfig::with_cores(1),
            CoreConfig::table1(),
            MemConfig::table1(),
            vec![slot(RunaheadConfig::vector())],
        );
        let run = chip.try_run(10_000).unwrap();
        assert_eq!(run.per_core[0], want, "N=1 chip must be bit-identical");
        assert_eq!(run.chip.bank_conflicts, 0);
        assert_eq!(run.chip.cycles, want.cycles);
    }

    #[test]
    fn four_core_chip_shows_contention_and_separate_stats() {
        let slots: Vec<CoreSlot> = (0..4).map(|_| slot(RunaheadConfig::vector())).collect();
        let mut chip =
            Chip::new(ChipConfig::with_cores(4), CoreConfig::table1(), MemConfig::table1(), slots);
        let run = chip.try_run(5_000).unwrap();
        assert_eq!(run.per_core.len(), 4);
        for s in &run.per_core {
            // The 5-wide commit may overshoot the budget by up to a
            // commit group, exactly like the standalone simulator.
            assert!(s.instructions >= 5_000 && s.instructions < 5_005, "{}", s.instructions);
        }
        assert!(run.chip.bank_conflicts > 0, "4 identical cores must collide at banks");
        assert!(run.chip.arbitration_stall_cycles > 0);
        assert!(run.chip.llc_misses > 0);
        assert!(run.chip.cycles >= run.per_core.iter().map(|s| s.cycles).max().unwrap());
    }

    #[test]
    fn contention_slows_cores_down_relative_to_solo() {
        let solo = {
            let mut chip = Chip::new(
                ChipConfig::with_cores(1),
                CoreConfig::table1(),
                MemConfig::table1(),
                vec![slot(RunaheadConfig::none())],
            );
            chip.try_run(4_000).unwrap().per_core[0].cycles
        };
        // A tightly-banked chip: one bank, long service time, few
        // shared MSHRs — contention must cost cycles.
        let crowded = {
            let cfg =
                ChipConfig { cores: 4, llc_banks: 1, bank_service_cycles: 16, shared_mshrs: 4 };
            let slots: Vec<CoreSlot> = (0..4).map(|_| slot(RunaheadConfig::none())).collect();
            let mut chip = Chip::new(cfg, CoreConfig::table1(), MemConfig::table1(), slots);
            let run = chip.try_run(4_000).unwrap();
            assert!(run.chip.shared_mshr_rejections > 0, "4 MSHRs must reject under 4 cores");
            run.per_core.iter().map(|s| s.cycles).max().unwrap()
        };
        assert!(
            crowded > solo,
            "shared-resource contention must cost cycles: solo {solo}, crowded {crowded}"
        );
    }

    #[test]
    fn n1_chip_resumes_bit_identically_like_the_standalone_simulator() {
        let mk = || {
            Chip::new(
                ChipConfig::with_cores(1),
                CoreConfig::table1(),
                MemConfig::table1(),
                vec![slot(RunaheadConfig::vector())],
            )
        };
        let mut oneshot = mk();
        let want = oneshot.try_run(4_000).unwrap();
        let mut resumed = mk();
        resumed.try_run(1_000).unwrap();
        let got = resumed.try_run(4_000).unwrap();
        assert_eq!(got, want, "N=1 resume must be bit-identical to one shot");
    }

    #[test]
    fn multicore_resume_completes_the_larger_budget() {
        // For N >= 2 a pause desynchronizes the lockstep interleaving
        // (each core freezes at the cycle it hit the intermediate
        // budget), so we only pin that resuming *completes correctly*,
        // not that it matches the uninterrupted schedule (see the
        // try_run docs).
        let slots: Vec<CoreSlot> = (0..2).map(|_| slot(RunaheadConfig::vector())).collect();
        let mut chip =
            Chip::new(ChipConfig::with_cores(2), CoreConfig::table1(), MemConfig::table1(), slots);
        chip.try_run(1_000).unwrap();
        let run = chip.try_run(4_000).unwrap();
        for s in &run.per_core {
            assert!(s.instructions >= 4_000);
        }
    }

    #[test]
    fn stop_flag_aborts_a_chip_run() {
        let slots: Vec<CoreSlot> = (0..2).map(|_| slot(RunaheadConfig::vector())).collect();
        let mut chip =
            Chip::new(ChipConfig::with_cores(2), CoreConfig::table1(), MemConfig::table1(), slots);
        let flag = StopFlag::new();
        chip.set_stop_flag(flag.clone());
        flag.trip();
        assert!(matches!(chip.try_run(5_000), Err(SimError::Deadline(_))));
    }

    #[test]
    fn mixed_vr_placement_runs_and_keeps_percore_stats_apart() {
        let slots = vec![
            slot(RunaheadConfig::vector()),
            slot(RunaheadConfig::none()),
            slot(RunaheadConfig::vector()),
            slot(RunaheadConfig::none()),
        ];
        let mut chip =
            Chip::new(ChipConfig::with_cores(4), CoreConfig::table1(), MemConfig::table1(), slots);
        let run = chip.try_run(4_000).unwrap();
        assert!(run.per_core[0].vr_batches > 0, "VR core must vectorize");
        assert_eq!(run.per_core[1].vr_batches, 0, "non-VR core must not");
        assert!(run.per_core[2].vr_batches > 0);
        assert_eq!(run.per_core[3].vr_batches, 0);
    }

    #[test]
    fn fingerprint_covers_every_chip_config_field() {
        // Satellite: exhaustive delta test in the style of the
        // CoreConfig/MemConfig ones — every field must perturb the
        // fingerprint, so a cache key can never alias two configs.
        let base = ChipConfig::with_cores(4);
        let fp = |c: &ChipConfig| {
            let mut h = Fnv64::new();
            c.fingerprint(&mut h);
            h.finish()
        };
        let variants = [
            ChipConfig { cores: 8, ..base },
            ChipConfig { llc_banks: 16, ..base },
            ChipConfig { bank_service_cycles: 9, ..base },
            ChipConfig { shared_mshrs: 7, ..base },
        ];
        let mut seen = vec![fp(&base)];
        for v in &variants {
            let f = fp(v);
            assert!(!seen.contains(&f), "field change must change the fingerprint: {v:?}");
            seen.push(f);
        }
        assert_eq!(fp(&base), fp(&ChipConfig::with_cores(4)), "stable in-process");
    }
}
