//! The out-of-order core timing model and runahead orchestration.

use std::collections::VecDeque;
use std::time::Instant;

use vr_frontend::{Btb, DirectionPredictor, Ras, TageScL};
use vr_isa::{Cpu, Inst, Memory, OpClass, Program, Reg, RegRef, SplitMix64, Step};
use vr_mem::{Access, HitLevel, MemConfig, MemorySystem, Requestor};
use vr_obs::Counters;

use crate::config::{CoreConfig, RunaheadConfig, RunaheadKind};
use crate::error::{DeadlockDump, EpisodeStatus, OldestSlot, SimError};
use crate::runahead::{RaCtx, RunaheadEngine, ScalarRunahead, VrStatus};
use crate::stats::SimStats;
use crate::telemetry::{EpisodeExit, EpisodeKind, Telemetry};
use crate::trace::{PipelineTrace, TraceRecord};
use crate::vector::{VectorRunahead, MAX_LANES};
use crate::wakeup::{CompletionQueue, InFlightStore, StoreRing, WakeupLists, NO_LINK};

/// Cycles a decoupled (eager-trigger extension) vector-runahead
/// episode runs before yielding.
const EAGER_INTERVAL: u64 = 400;

/// Ticks between two reads of the wall clock while a deadline is
/// armed ([`Simulator::set_deadline`]). The first tick reads it, so a
/// deadline already past stops the run at once.
const DEADLINE_CHECK_TICKS: u32 = 1024;

/// An armed wall-clock deadline and the ticks run since it was armed.
#[derive(Clone, Copy, Debug)]
struct Deadline {
    at: Instant,
    ticks: u32,
}

/// Cap on the front-end buffer (fetched but not dispatched
/// instructions): width × front-end depth plus one extra fetch group.
fn fetch_q_cap(cfg: &CoreConfig) -> usize {
    cfg.width * cfg.frontend_depth as usize + cfg.width
}

/// Slot-slab size (DESIGN.md §12): the in-flight window never exceeds
/// `rob + fetch_q_cap` (fetch gates on the fetch-queue cap and a flush
/// only shrinks the ROB side of the window), plus `2 × width` slack so
/// a seq that commits in the same cycle its completion event pops
/// (commit is phase 2, the pop phase 5, fetch phase 7) is never
/// aliased by a same-cycle fetch. Power of two for mask indexing.
fn slab_slots(cfg: &CoreConfig) -> usize {
    (cfg.rob + fetch_q_cap(cfg) + 2 * cfg.width).next_power_of_two()
}

/// One in-flight dynamic instruction, resident in the slot slab.
/// `Copy` so commit can lift the head out of the slab without any heap
/// traffic.
#[derive(Clone, Copy, Debug)]
struct Slot {
    seq: u64,
    step: Step,
    fetch_at: u64,
    dispatched: bool,
    dispatch_at: u64,
    issued: bool,
    issue_at: u64,
    done_at: Option<u64>,
    mispredicted: bool,
    src_seqs: [Option<u64>; 2],
    hit: Option<HitLevel>,
    /// In-flight producers this slot still waits on (event-driven
    /// wakeup bookkeeping; 0, 1 or 2).
    pending: u8,
}

impl Slot {
    /// Placeholder for never-yet-fetched slab slots.
    fn empty() -> Slot {
        Slot {
            seq: u64::MAX,
            step: Step {
                pc: 0,
                inst: Inst::NOP,
                mem: None,
                taken: None,
                write: None,
                next_pc: 0,
                halted: false,
            },
            fetch_at: 0,
            dispatched: false,
            dispatch_at: 0,
            issued: false,
            issue_at: 0,
            done_at: None,
            mispredicted: false,
            src_seqs: [None, None],
            hit: None,
            pending: 0,
        }
    }

    fn is_load(&self) -> bool {
        self.step.inst.is_load()
    }
    fn is_store(&self) -> bool {
        self.step.inst.is_store()
    }
    fn done_by(&self, cycle: u64) -> bool {
        self.done_at.is_some_and(|d| d <= cycle)
    }
}

/// A live runahead episode; it drives the core's one engine
/// (`Simulator::engine`).
struct RunaheadEpisode {
    /// Cycle the blocking load returns (or the eager episode expires).
    end_at: u64,
    /// Decoupled episodes (eager-trigger extension) do not stall
    /// fetch/commit and do not flush on exit.
    decoupled: bool,
}

/// A provably-quiescent pipeline window (see `Simulator::ff_analysis`).
struct FfWindow {
    /// Earliest cycle anything can happen: the skip may advance the
    /// clock up to (and including) this cycle, whose tick stays real.
    horizon: u64,
    /// The steady-state `backend_stalled` value the skipped dispatch
    /// phases would have recomputed each cycle.
    stalled: bool,
    /// A live (non-decoupled) episode: the *pipeline* is frozen, but
    /// the engine itself may still have work, which
    /// [`Simulator::advance`] runs in virtual time.
    engine: bool,
    /// The ready list holds only loads, and the oldest one's issue
    /// attempt is rejected for a full MSHR file every cycle of the
    /// window (its free cycle caps the horizon): each skipped cycle
    /// books one rejected demand load.
    load_retries: bool,
}

/// What one [`Simulator::advance`] call did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Advance {
    /// Skipped a proven no-op window up to the returned cycle without
    /// ticking — no access reached the memory hierarchy (the attempts a
    /// full MSHR file would have rejected are booked in bulk), so under
    /// a chip clock the core can sleep until the chip catches up.
    Skipped(u64),
    /// A live runahead episode ran its engine on the cheap path
    /// (identical memory accesses to full ticks; every other pipeline
    /// phase proven frozen): one cycle on a core attached to a shared
    /// LLC, up to the window's horizon otherwise.
    EngineStepped,
    /// One full pipeline tick (the core may act this cycle).
    Ticked,
}

/// Per-cycle functional-unit budget.
#[derive(Default)]
struct FuBudget {
    int_alu: usize,
    int_mul: usize,
    fp_add: usize,
    fp_mul: usize,
    loads: usize,
    stores: usize,
    total: usize,
}

/// The simulator: a 5-wide out-of-order core (Table 1) over the
/// `vr-mem` hierarchy, with optional runahead engines including Vector
/// Runahead.
///
/// The execution model is functional-first: the fetch unit executes
/// instructions functionally in program order and the timing model
/// replays their *timing* through rename/dispatch/issue/commit. See
/// DESIGN.md §4 for the documented approximations.
pub struct Simulator {
    cfg: CoreConfig,
    ra_cfg: RunaheadConfig,
    prog: Program,
    mem: Memory,
    ms: MemorySystem,
    bp: TageScL,
    btb: Btb,
    ras: Ras,

    fetch_cpu: Cpu,
    fetch_done: bool,
    committed: Cpu,

    /// The in-flight instruction window, stored as a slab addressed by
    /// `seq & slab_mask` (DESIGN.md §12): the ROB is the seq range
    /// `[rob_head_seq, rob_end_seq)` and the fetch queue (fetched, not
    /// yet dispatched) is `[rob_end_seq, next_seq)`. Commit, dispatch
    /// and flush are pure index arithmetic — no slot ever moves and
    /// nothing allocates after construction.
    slab: Box<[Slot]>,
    slab_mask: u64,
    /// Oldest in-flight (un-committed) seq.
    rob_head_seq: u64,
    /// One past the youngest dispatched seq (== `rob_head_seq` when
    /// the ROB is empty).
    rob_end_seq: u64,
    /// Next seq to fetch (== `rob_end_seq` when the fetch queue is
    /// empty).
    next_seq: u64,
    /// Youngest in-flight writer of each architectural register
    /// (indexed by [`RegRef::flat_index`]; flat array — the rename
    /// table is on the per-instruction hot path).
    last_writer: [Option<u64>; RegRef::FLAT_COUNT],
    /// Completion events `(done_at, producer seq)` — the event-driven
    /// wakeup queue. The flush path purges events for squashed seqs
    /// (see [`Self::flush_after_head`]), so every queued event is valid
    /// when it pops.
    wake_events: CompletionQueue,
    /// Intrusive per-producer waiter chains over the slab (see
    /// [`crate::wakeup`]).
    wakeup: WakeupLists,
    /// The ROB's stores — dispatched, not yet committed — in program
    /// order: what a load checks for store-to-load forwarding. Its
    /// length is the store-queue occupancy.
    stores: StoreRing,
    /// Dispatched, unissued slots with no outstanding producers,
    /// sorted by seq (program order — the issue priority).
    ready: Vec<u64>,
    /// Spare buffer the issue stage ping-pongs with `ready` so the
    /// kept-for-next-cycle list never re-allocates.
    ready_scratch: Vec<u64>,
    free_int: isize,
    free_fp: isize,
    iq_used: usize,
    lq_used: usize,
    store_buffer: VecDeque<(u64, u64)>,
    pending_branch: Option<u64>,
    div_busy_until: u64,
    fdiv_busy_until: u64,

    /// The core's runahead engine (`None` for the baseline core): built
    /// once from [`RunaheadKind`] and re-armed in place by every
    /// trigger, so an episode allocates nothing (DESIGN.md §12).
    engine: Option<Box<dyn RunaheadEngine>>,
    runahead: Option<RunaheadEpisode>,
    /// Differential-test hook: `ff_analysis` finds no window, so every
    /// cycle is a full tick.
    #[cfg(test)]
    every_cycle: bool,
    /// Seeded fault schedule when a [`crate::FaultPlan`] is configured.
    fault_rng: Option<SplitMix64>,
    /// Dispatch was blocked by a back-end resource (ROB, IQ, LQ/SQ or
    /// physical registers) last cycle. In this RISC ISA nearly every
    /// instruction writes a register, so the PRF binds slightly before
    /// the ROB itself; the runahead trigger therefore fires on any
    /// back-end-full stall behind an LLC miss, which is the paper's
    /// full-ROB trigger in spirit (see DESIGN.md §4).
    backend_stalled: bool,

    /// Wall-clock deadline (see [`Simulator::set_deadline`]); read
    /// every [`DEADLINE_CHECK_TICKS`] ticks.
    deadline: Option<Deadline>,

    cycle: u64,
    last_commit_cycle: u64,
    committed_insts: u64,
    halted: bool,
    stats: SimStats,
    tracer: Option<PipelineTrace>,
    /// Optional episode-lifecycle tracker; hooks fire only on episode
    /// boundaries (see [`crate::telemetry`]).
    telemetry: Option<Box<Telemetry>>,
}

impl Simulator {
    /// Builds a simulator over a program, an initial memory image, and
    /// initial register values.
    pub fn new(
        cfg: CoreConfig,
        mem_cfg: MemConfig,
        ra_cfg: RunaheadConfig,
        prog: Program,
        mem: Memory,
        init_regs: &[(Reg, u64)],
    ) -> Simulator {
        let mut cpu = Cpu::new();
        for &(r, v) in init_regs {
            cpu.set_x(r, v);
        }
        let free_int = cfg.int_regs as isize - Reg::COUNT as isize;
        let free_fp = cfg.fp_regs as isize - Reg::COUNT as isize;
        let mut ms = MemorySystem::new(mem_cfg);
        let fault_rng = ra_cfg.fault_plan.map(|plan| {
            if plan.drop_prefetch > 0.0 || plan.delay_prefetch > 0.0 {
                ms.set_prefetch_chaos(plan.drop_prefetch, plan.delay_prefetch, plan.seed);
            }
            SplitMix64::new(plan.seed)
        });
        let n_slots = slab_slots(&cfg);
        let engine: Option<Box<dyn RunaheadEngine>> = match ra_cfg.kind {
            RunaheadKind::None => None,
            // PRE's slice filtering focuses the same front-end bandwidth
            // on load slices; modelled at core width with no exit flush
            // (DESIGN.md §4).
            RunaheadKind::Classic | RunaheadKind::Precise => {
                Some(Box::new(ScalarRunahead::new(cpu, None, cfg.width)))
            }
            // Over-wide lane masks are a `BadConfig` that `validate`
            // reports before the first cycle.
            RunaheadKind::Vector if ra_cfg.vr_lanes > MAX_LANES => None,
            RunaheadKind::Vector => {
                Some(Box::new(VectorRunahead::new(cpu, &ra_cfg, cfg.width, cfg.fu.vec_alu)))
            }
        };
        Simulator {
            ms,
            bp: TageScL::default_8kb(),
            btb: Btb::default(),
            ras: Ras::default(),
            fetch_cpu: cpu,
            fetch_done: false,
            committed: cpu,
            slab: vec![Slot::empty(); n_slots].into_boxed_slice(),
            slab_mask: n_slots as u64 - 1,
            rob_head_seq: 0,
            rob_end_seq: 0,
            next_seq: 0,
            last_writer: [None; RegRef::FLAT_COUNT],
            wake_events: CompletionQueue::new(n_slots),
            wakeup: WakeupLists::new(n_slots),
            stores: StoreRing::new(cfg.sq),
            ready: Vec::with_capacity(n_slots),
            ready_scratch: Vec::with_capacity(n_slots),
            free_int,
            free_fp,
            iq_used: 0,
            lq_used: 0,
            store_buffer: VecDeque::with_capacity(cfg.store_buffer),
            pending_branch: None,
            div_busy_until: 0,
            fdiv_busy_until: 0,
            engine,
            runahead: None,
            #[cfg(test)]
            every_cycle: false,
            fault_rng,
            backend_stalled: false,
            deadline: None,
            cycle: 0,
            last_commit_cycle: 0,
            committed_insts: 0,
            halted: false,
            stats: SimStats::default(),
            tracer: None,
            telemetry: None,
            cfg,
            ra_cfg,
            prog,
            mem,
        }
    }

    // ---- slab window accessors -------------------------------------

    #[inline]
    fn slot(&self, seq: u64) -> &Slot {
        &self.slab[(seq & self.slab_mask) as usize]
    }

    #[inline]
    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        &mut self.slab[(seq & self.slab_mask) as usize]
    }

    #[inline]
    fn rob_len(&self) -> usize {
        (self.rob_end_seq - self.rob_head_seq) as usize
    }

    #[inline]
    fn fetch_q_len(&self) -> usize {
        (self.next_seq - self.rob_end_seq) as usize
    }

    #[inline]
    fn rob_front(&self) -> Option<&Slot> {
        (self.rob_head_seq != self.rob_end_seq).then(|| self.slot(self.rob_head_seq))
    }

    /// Runs until `halt` commits or `max_insts` instructions commit;
    /// returns the collected statistics. The canonical, non-panicking
    /// entry point.
    ///
    /// # Errors
    ///
    /// * [`SimError::BadConfig`] — the configuration is internally
    ///   inconsistent (reported before the first cycle).
    /// * [`SimError::Deadlock`] — no instruction committed for
    ///   [`CoreConfig::watchdog`] cycles; carries a full scheduler
    ///   snapshot ([`DeadlockDump`]). A simulator bug, not a workload
    ///   property: the longest legitimate stall is a DRAM round trip.
    /// * [`SimError::Program`] — fetch ran off the program (harness
    ///   bug in the workload).
    /// * [`SimError::Invariant`] — a per-cycle structural check failed
    ///   (only with the `checked` cargo feature).
    pub fn try_run(&mut self, max_insts: u64) -> Result<SimStats, SimError> {
        self.validate()?;
        while !self.finished(max_insts) {
            self.advance()?;
        }
        Ok(self.seal_stats())
    }

    /// Whether the run budget is exhausted: the program halted or
    /// `max_insts` instructions have committed.
    pub fn finished(&self, max_insts: u64) -> bool {
        self.halted || self.committed_insts >= max_insts
    }

    /// The one stepping kernel: every run — [`Self::try_run`] and each
    /// chip round of `vr-chip` — moves the model by calling this and
    /// nothing else. `try_run` is exactly [`Self::validate`], this in a
    /// `while !finished` loop, and [`Self::seal_stats`], so a
    /// caller-driven loop is bit-identical by construction.
    ///
    /// One call does one of three things:
    ///
    /// * **skips** a window `ff_analysis` proves quiescent — no
    ///   tick, no memory-system access, per-cycle stall counters and
    ///   the full-MSHR retries of the oldest ready load bulk-applied;
    /// * **runs a live runahead engine** forward in virtual time through
    ///   a window in which every *other* phase is proven frozen: active
    ///   cycles (gather issue, chain stepping) execute the engine's own
    ///   `step_cycle` at the exact timestamps the full ticks would have,
    ///   without the phase walk, and idle stretches jump via
    ///   `idle_until` (booking the gather retries a full MSHR file
    ///   rejects). The engine touches only its own state and the
    ///   memory system, so the hierarchy observes exactly the unskipped
    ///   access order. The window runs through delayed termination
    ///   (past the episode's `end_at`) and stops before the cycle at
    ///   which the engine `finishes`, which is left for a real tick; or
    /// * **ticks** the full pipeline for one cycle, then applies the
    ///   watchdog and deadline checks.
    ///
    /// Classic, PRE and Vector Runahead share this window: each engine
    /// answers `finishes` and `idle_until` for itself.
    ///
    /// How far the engine may run in one call is read from state the
    /// core already holds: a core attached to a chip-shared LLC stops
    /// after one jump-or-step, so its accesses interleave with the other
    /// cores' arrivals in exact chip-clock order; an unattached core
    /// has nobody to interleave with and runs to the horizon.
    ///
    /// Because a window is skipped only when every phase is a no-op for
    /// each of its cycles, the result does not depend on how callers
    /// split a window across calls.
    ///
    /// # Errors
    ///
    /// Same as [`Self::try_run`] (minus `BadConfig`, which only
    /// `validate` reports); only the full-tick path can fail.
    pub fn advance(&mut self) -> Result<Advance, SimError> {
        if let Some(w) = self.ff_analysis() {
            if !w.engine {
                self.apply_fast_forward(w.horizon, &w);
                return Ok(Advance::Skipped(w.horizon));
            }
            let c = self.cycle;
            let one_event = self.ms.shared_attached();
            let end_at = self.runahead.as_ref().expect("an engine window has an episode").end_at;
            let eng = self.engine.as_mut().expect("a live episode has an engine");
            let mut t = c;
            let mut stepped = false;
            // The finishing cycle (exit, flush) needs a real tick.
            while t < w.horizon && !eng.finishes(&self.prog, t, t >= end_at) {
                match eng.idle_until(&self.prog, &self.ms, t, end_at) {
                    Some(idle) if idle.until > t => {
                        let to = idle.until.min(w.horizon);
                        if idle.retries {
                            self.ms.book_rejected_loads(Requestor::Runahead, to - t);
                        }
                        t = to;
                    }
                    _ => {
                        let mut ctx =
                            RaCtx { prog: &self.prog, mem: &self.mem, ms: &mut self.ms, now: t };
                        let status = eng.step_cycle(&mut ctx, t >= end_at);
                        debug_assert_eq!(status, VrStatus::Working, "stepped a finishing cycle");
                        t += 1;
                        stepped = true;
                    }
                }
                if one_event {
                    break;
                }
            }
            if t > c {
                self.apply_fast_forward(t, &w);
                return Ok(if stepped { Advance::EngineStepped } else { Advance::Skipped(t) });
            }
        }
        self.try_tick()?;
        if self.cycle - self.last_commit_cycle >= self.cfg.watchdog {
            return Err(SimError::Deadlock(Box::new(self.deadlock_dump())));
        }
        // Wall-clock deadline: one branch when none is armed; when one
        // is, a tick count, and a clock read every DEADLINE_CHECK_TICKS
        // ticks.
        if let Some(d) = &mut self.deadline {
            if d.ticks % DEADLINE_CHECK_TICKS == 0 && Instant::now() >= d.at {
                return Err(SimError::Deadline(Box::new(self.deadlock_dump())));
            }
            d.ticks = d.ticks.wrapping_add(1);
        }
        Ok(Advance::Ticked)
    }

    /// Folds the live counters (cycles, committed instructions, memory
    /// statistics) into [`SimStats`] and returns the snapshot — the
    /// tail of [`Self::try_run`], exposed for external clock owners.
    /// Idempotent; safe to call mid-run.
    ///
    /// # Panics
    ///
    /// Panics if some requestor's prefetches do not conserve (see
    /// [`vr_mem::MemStats::pf_issued`]).
    pub fn seal_stats(&mut self) -> SimStats {
        self.stats.cycles = self.cycle;
        self.stats.instructions = self.committed_insts;
        self.stats.mshr_occupancy_integral = self.ms.mshr_occupancy_integral();
        self.stats.mem = *self.ms.stats();
        let (m, resident) = (&self.stats.mem, self.ms.pf_resident());
        for i in 0..resident.len() {
            assert_eq!(
                m.pf_issued[i],
                m.pf_used[i] + m.pf_evicted_unused[i] + resident[i],
                "prefetch outcomes of requestor {i} do not conserve (resident {resident:?})"
            );
        }
        let mut stats = self.stats;
        // A live episode's pre-executed instructions count already;
        // the rest of its counters fold in at exit.
        if let (Some(_), Some(eng)) = (&self.runahead, &self.engine) {
            stats.runahead_insts += eng.counters().insts;
        }
        stats
    }

    /// Panicking convenience wrapper over [`Self::try_run`] for call
    /// sites that treat simulator failure as fatal (experiments,
    /// tests, examples).
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`]'s full message — including the
    /// deadlock diagnostic dump — if `try_run` fails.
    pub fn run(&mut self, max_insts: u64) -> SimStats {
        self.try_run(max_insts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Warm up for `warmup` committed instructions, then measure a
    /// region of interest of `roi` instructions and return *its*
    /// statistics only — the paper's ROI methodology (caches,
    /// predictors and prefetcher state stay warm across the boundary).
    ///
    /// # Errors
    ///
    /// Same as [`Self::try_run`].
    pub fn try_run_roi(&mut self, warmup: u64, roi: u64) -> Result<SimStats, SimError> {
        let before = self.try_run(warmup)?;
        let after = self.try_run(warmup + roi)?;
        Ok(after.delta(&before))
    }

    /// Panicking convenience wrapper over [`Self::try_run_roi`].
    ///
    /// # Panics
    ///
    /// Panics with the [`SimError`]'s full message if the run fails.
    pub fn run_roi(&mut self, warmup: u64, roi: u64) -> SimStats {
        self.try_run_roi(warmup, roi).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validates the configuration without running anything (also done
    /// by [`Self::try_run`]; external clock owners — `vr-chip` — call
    /// it once before their [`Self::advance`] loop).
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] when the configuration is internally
    /// inconsistent.
    pub fn validate(&self) -> Result<(), SimError> {
        fn bad(what: impl Into<String>) -> Result<(), SimError> {
            Err(SimError::BadConfig { what: what.into() })
        }
        let c = &self.cfg;
        if c.width == 0 {
            return bad("width must be > 0");
        }
        if c.rob == 0 || c.iq == 0 || c.lq == 0 || c.sq == 0 {
            return bad(format!(
                "rob/iq/lq/sq must all be > 0 (got {}/{}/{}/{})",
                c.rob, c.iq, c.lq, c.sq
            ));
        }
        if c.int_regs < Reg::COUNT || c.fp_regs < Reg::COUNT {
            return bad(format!(
                "physical register files must cover the {} architectural registers \
                 (got int {}, fp {})",
                Reg::COUNT,
                c.int_regs,
                c.fp_regs
            ));
        }
        if c.store_buffer == 0 {
            return bad("store_buffer must be > 0 (commit would wedge on the first store)");
        }
        if c.watchdog == 0 {
            return bad("watchdog must be > 0 cycles");
        }
        let r = &self.ra_cfg;
        if r.kind == RunaheadKind::Vector && r.vr_lanes == 0 {
            return bad("vector runahead needs vr_lanes > 0");
        }
        if r.kind == RunaheadKind::Vector && r.vr_lanes > crate::vector::MAX_LANES {
            // The SoA lane masks are fixed-width bit vectors (DESIGN.md
            // §14); the lane count is a hard structural bound.
            return bad(format!(
                "vr_lanes {} exceeds the lane-mask capacity of {}",
                r.vr_lanes,
                crate::vector::MAX_LANES
            ));
        }
        if let Some(p) = &r.fault_plan {
            for (name, v) in [
                ("abort_episode", p.abort_episode),
                ("poison_lanes", p.poison_lanes),
                ("drop_prefetch", p.drop_prefetch),
                ("delay_prefetch", p.delay_prefetch),
                ("force_early_exit", p.force_early_exit),
            ] {
                if !(0.0..=1.0).contains(&v) {
                    return bad(format!("fault_plan.{name} must be a probability, got {v}"));
                }
            }
        }
        Ok(())
    }

    /// Snapshot of every occupancy counter the scheduler depends on —
    /// the payload of [`SimError::Deadlock`].
    fn deadlock_dump(&mut self) -> DeadlockDump {
        let oldest = self.rob_front().map(|s| OldestSlot {
            seq: s.seq,
            pc: s.step.pc,
            inst: format!("{:?}", s.step.inst),
            dispatched: s.dispatched,
            issued: s.issued,
            done_at: s.done_at,
        });
        let episode = self.runahead.as_ref().map(|ep| EpisodeStatus {
            kind: format!("{:?}", self.episode_kind()),
            decoupled: ep.decoupled,
            end_at: ep.end_at,
        });
        let cycle = self.cycle;
        DeadlockDump {
            cycle,
            last_commit_cycle: self.last_commit_cycle,
            watchdog: self.cfg.watchdog,
            committed_insts: self.committed_insts,
            pc: self.fetch_cpu.pc(),
            rob_len: self.rob_len(),
            rob_cap: self.cfg.rob,
            iq_used: self.iq_used,
            iq_cap: self.cfg.iq,
            lq_used: self.lq_used,
            lq_cap: self.cfg.lq,
            sq_used: self.stores.len(),
            sq_cap: self.cfg.sq,
            fetch_q_len: self.fetch_q_len(),
            store_buffer_len: self.store_buffer.len(),
            free_int: self.free_int.max(0) as usize,
            free_fp: self.free_fp.max(0) as usize,
            mshr_outstanding: self.ms.outstanding_misses(cycle),
            oldest,
            episode,
            halted: self.halted,
            fetch_done: self.fetch_done,
        }
    }

    /// Arms a wall-clock deadline: once `at` has passed, the running
    /// [`Self::try_run`] returns [`SimError::Deadline`] within 1024
    /// ticks (the clock is read on the first tick and every 1024th
    /// after), carrying the same [`DeadlockDump`] snapshot the commit
    /// watchdog takes. Stats are bit-identical with or without a
    /// deadline that does not expire: the clock is only read and never
    /// influences timing.
    pub fn set_deadline(&mut self, at: Instant) {
        self.deadline = Some(Deadline { at, ticks: 0 });
    }

    /// Enables pipeline tracing, retaining the last `capacity`
    /// committed instructions' stage timestamps (see
    /// [`PipelineTrace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(PipelineTrace::new(capacity));
    }

    /// The pipeline trace, if enabled.
    pub fn trace(&self) -> Option<&PipelineTrace> {
        self.tracer.as_ref()
    }

    /// Enables runahead-episode telemetry, retaining the last
    /// `capacity` completed episodes. The reported [`SimStats`] are
    /// bit-identical with telemetry on or off — the tracker only
    /// observes transitions the simulator already performs.
    pub fn enable_telemetry(&mut self, capacity: usize) {
        self.telemetry = Some(Box::new(Telemetry::new(capacity)));
    }

    /// The runahead-episode tracker, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Memory image accessor (for architectural-result checks after a
    /// bounded `run`).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The current cycle count (the core's clock; under a chip clock
    /// it runs ahead of the chip's minimum after an [`Advance::Skipped`]
    /// window, and the chip lets the rest catch up).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Routes this core's L2-miss traffic through a chip-shared banked
    /// LLC + DRAM broker (see `vr_mem::SharedLlc`). `core` tags this
    /// core's lines in the shared cache. Must be called before the
    /// first cycle; a core with no attachment keeps its private
    /// L3/DRAM, bit-identical to the pre-chip simulator. An attached
    /// core's [`Self::advance`] stops a runahead engine after one event
    /// so cross-core arrival order stays exact. The broker itself is
    /// owned by the chip and moved in/out around every `advance` via
    /// [`Self::install_shared_llc`] / [`Self::take_shared_llc`].
    pub fn attach_shared_llc(&mut self, core: u32) {
        self.ms.attach_shared_llc(core);
    }

    /// Hands this core the chip's LLC broker for its next tick(s) — a
    /// `Box` move, no lock (see `vr_mem::MemorySystem::install_shared_llc`).
    pub fn install_shared_llc(&mut self, llc: Box<vr_mem::SharedLlc>) {
        self.ms.install_shared_llc(llc);
    }

    /// Takes the chip's LLC broker back after this core's tick(s).
    pub fn take_shared_llc(&mut self) -> Box<vr_mem::SharedLlc> {
        self.ms.take_shared_llc()
    }

    /// The committed architectural register state — ground truth for
    /// the architectural-invisibility oracle (must be bit-identical
    /// across runahead kinds and fault plans).
    pub fn committed_cpu(&self) -> &Cpu {
        &self.committed
    }

    /// Number of pending completion events in the event-driven wakeup
    /// queue. Diagnostic: thanks to the flush-time purge of squashed
    /// producers' events (in `flush_after_head`) this is
    /// bounded by the slot-slab size on any workload, however
    /// flush-heavy — a property the `checked` feature asserts every
    /// cycle and a regression test pins.
    pub fn wake_events_len(&self) -> usize {
        self.wake_events.len()
    }

    /// Capacities of the vector engine's steady-state-critical buffers
    /// (`pending_gather`, the gather scratch, lane columns); `None`
    /// without a vector engine. Diagnostic for the alloc-budget test:
    /// these must not grow across the ROI.
    #[doc(hidden)]
    pub fn vector_buffer_caps(&self) -> Option<(usize, usize, usize)> {
        self.engine.as_ref()?.buffer_caps()
    }

    /// Differential-test hook (unit tests only): replace the core's
    /// runahead engine before the first cycle.
    #[cfg(test)]
    fn set_engine(&mut self, engine: Box<dyn RunaheadEngine>) {
        self.engine = Some(engine);
    }

    /// Differential-test hook (unit tests only): no fast-forward of any
    /// class, every cycle a full tick.
    #[cfg(test)]
    fn set_every_cycle(&mut self, on: bool) {
        self.every_cycle = on;
    }

    fn try_tick(&mut self) -> Result<(), SimError> {
        let c = self.cycle;

        // Per-cycle invariants (only with the `checked` feature) —
        // validated *before* the scheduler consumes the state, so a
        // corruption is reported as a typed error rather than via
        // whatever downstream panic it would eventually cause.
        self.check_invariants()?;

        // 0. Fault injection (no-op without a FaultPlan).
        if self.fault_rng.is_some() {
            self.inject_faults(c);
        }

        // 1. Runahead engine.
        self.step_runahead(c);

        // 2. Commit.
        let committed = self.commit(c);

        // 3. Post-commit store buffer drain.
        self.drain_store_buffer(c);

        // 4. Runahead trigger check.
        self.maybe_trigger(c);

        // 5. Issue / execute.
        self.issue(c);

        // 6. Dispatch.
        self.dispatch(c);

        // 7. Fetch.
        self.fetch(c)?;

        // 8. Stats.
        self.book_cycles(1, committed > 0 || self.halted, self.backend_stalled);
        self.cycle += 1;
        Ok(())
    }

    /// Quiescence analysis for [`Self::advance`]: decides, without
    /// mutating anything, whether every `try_tick` phase is a provable
    /// no-op from the current cycle up to a horizon, so the clock can
    /// move there in bulk instead of spinning through no-op ticks.
    /// Returns `None` when any phase may act this cycle.
    ///
    /// Skipping cannot change timing because a cycle is skipped only when
    /// *every* `try_tick` phase is a no-op for it, by induction over
    /// the skipped window (the state each phase reads is exactly the
    /// state that the phases are proven not to modify):
    ///
    /// * fault injection / runahead step / trigger: no episode is
    ///   running, and (when a trigger is configured) either the head is
    ///   not a DRAM-blocked load or the back end is not full — neither
    ///   now nor under the `stalled` verdict every skipped dispatch
    ///   recomputes — so the trigger predicate stays false;
    /// * commit: the ROB head has not completed, and its completion
    ///   event bounds the skip horizon;
    /// * store drain: the post-commit store buffer is empty and only
    ///   commit refills it;
    /// * issue: the ready list is empty — or holds only loads whose
    ///   oldest is rejected for a full MSHR file until the horizon, so
    ///   each cycle's issue is that one rejected attempt, booked in
    ///   bulk — and the earliest wakeup event bounds the horizon, so no
    ///   instruction becomes ready earlier;
    /// * dispatch: the front-end queue is empty, time-gated (the gate
    ///   bounds the horizon), or blocked on a back-end resource that
    ///   only the frozen commit/issue stages could free;
    /// * fetch: the fetch unit is done, the queue is full, or an
    ///   unresolved branch redirect — whose resolution is bounded by
    ///   the branch's wakeup event — blocks it.
    ///
    /// The horizon is additionally capped at the watchdog deadline so
    /// a genuine deadlock is still reported at the exact cycle the
    /// unskipped simulator would have reported it. Per-cycle stall
    /// counters are bulk-incremented with the same values the skipped
    /// ticks would have accumulated.
    ///
    /// A second class covers *runahead episodes* (DESIGN.md §14): a
    /// non-decoupled episode freezes commit, fetch and the trigger by
    /// construction, so once dispatch and issue are proven frozen the
    /// window is reported with `engine` set and `advance` runs the live
    /// engine — classic, PRE or vector — through it, delayed
    /// termination included. Fault injection draws from its RNG every
    /// cycle an episode is live, so any armed fault plan disables the
    /// episode window entirely.
    fn ff_analysis(&self) -> Option<FfWindow> {
        #[cfg(test)]
        if self.every_cycle {
            return None;
        }
        if !self.store_buffer.is_empty() {
            return None;
        }
        let c = self.cycle;
        let load_blocked = match self.ready.first() {
            None => None,
            Some(&oldest) => Some(self.ready_loads_blocked_until(oldest, c)?),
        };

        let mut head_blocked_dram = false;
        let engine = if let Some(ep) = &self.runahead {
            // Decoupled episodes leave the whole pipeline live; a
            // fault plan consumes RNG per episode cycle.
            if ep.decoupled || self.fault_rng.is_some() {
                return None;
            }
            // Commit, trigger and fetch are frozen by the episode
            // itself; only dispatch below needs checking. `advance`
            // runs the engine forward in virtual time (active cycles
            // stepped, idle windows jumped).
            true
        } else {
            // Commit must be frozen; the trigger is checked below, once
            // the dispatch verdict it reads is known.
            if let Some(head) = self.rob_front() {
                if head.done_by(c) {
                    return None; // commit acts this cycle
                }
                head_blocked_dram =
                    head.is_load() && head.issued && head.hit == Some(HitLevel::Dram);
            }

            // Fetch must be frozen.
            if let Some(bseq) = self.pending_branch {
                if self.branch_resolved(bseq, c) {
                    return None; // fetch clears the redirect this cycle
                }
            } else if !self.fetch_done && self.fetch_q_len() < fetch_q_cap(&self.cfg) {
                return None; // fetch has work
            }
            false
        };

        // Dispatch must be frozen: empty, time-gated, or blocked.
        // `stalled` is the steady-state `backend_stalled` value the
        // skipped dispatch phases would have recomputed each cycle.
        let mut dispatch_gate = None;
        let mut stalled = false;
        if self.rob_end_seq != self.next_seq {
            let front = self.slot(self.rob_end_seq);
            let eligible_at = front.fetch_at + self.cfg.frontend_depth;
            if eligible_at > c {
                dispatch_gate = Some(eligible_at);
            } else {
                if !self.dispatch_blocked(front.step.inst) {
                    return None; // dispatch acts this cycle
                }
                stalled = true;
            }
        }

        // The trigger must stay false. Its `blocked` half holds for the
        // whole window once `head_blocked_dram` does (the head's
        // completion event bounds the horizon); its `full` half reads
        // the frozen ROB length and `backend_stalled` — the current
        // value on this cycle, the recomputed `stalled` on every later
        // one.
        if head_blocked_dram
            && self.engine.is_some()
            && (self.rob_len() >= self.cfg.rob || self.backend_stalled || stalled)
        {
            return None; // the trigger may fire in the window
        }

        // Horizon: the earliest cycle anything can happen — the next
        // completion event, the dispatch time gate, or the watchdog
        // deadline (exclusive of the reporting cycle itself).
        let mut target = self.last_commit_cycle.saturating_add(self.cfg.watchdog - 1);
        if let Some(t) = self.wake_events.next_time(c) {
            target = target.min(t);
        }
        if let Some(gate) = dispatch_gate {
            target = target.min(gate);
        }
        if let Some(free) = load_blocked {
            target = target.min(free);
        }
        (target > c).then_some(FfWindow {
            horizon: target,
            stalled,
            engine,
            load_retries: load_blocked.is_some(),
        })
    }

    /// For a non-empty ready list headed by `oldest`: when every ready
    /// entry is a load and `oldest`'s issue attempt at `c` is rejected
    /// for a full MSHR file, the first cycle it can be accepted. Until
    /// then each issue phase is that one rejected attempt: the younger
    /// loads wait behind it in program order, and no memory access in
    /// between can change the verdict (the file stays full). The MSHR
    /// compare comes first, so a ready list that can issue costs one.
    fn ready_loads_blocked_until(&self, oldest: u64, c: u64) -> Option<u64> {
        if self.ms.mshr_free(c)
            || self.cfg.fu.load_ports == 0
            || !self.ready.iter().all(|&q| self.slot(q).is_load())
        {
            return None;
        }
        let me = self.slot(oldest).step.mem.expect("load has a memory effect");
        if self.forwarded(oldest, me.addr, me.width.bytes() as u8, c) {
            return None;
        }
        self.ms.load_rejected_until(me.addr, Requestor::Main, c)
    }

    /// Skip cycles `self.cycle .. t` of window `w`: bulk-apply the
    /// per-cycle stats the skipped (or engine-only) ticks would have
    /// recorded, and the demand-load retries they would have made.
    fn apply_fast_forward(&mut self, t: u64, w: &FfWindow) {
        let delta = t - self.cycle;
        self.cycle = t;
        if w.load_retries {
            self.ms.book_rejected_loads(Requestor::Main, delta);
        }
        self.book_cycles(delta, false, w.stalled);
        self.backend_stalled = w.stalled;
    }

    /// Books `n` cycles of one pipeline state to the cycle-class
    /// counters: weight 1 from a tick, the window length from a
    /// fast-forward. `committed` is false when commit made no progress
    /// on a live core; `stalled` says a back-end queue refused
    /// dispatch.
    fn book_cycles(&mut self, n: u64, committed: bool, stalled: bool) {
        if !committed {
            self.stats.commit_stall_cycles += n;
            if self.rob_len() >= self.cfg.rob || stalled {
                self.stats.full_rob_stall_cycles += n;
            }
        }
        if self.runahead.is_some() {
            self.stats.runahead_cycles += n;
        }
    }

    /// Per-cycle structural assertions (the `checked` cargo feature).
    /// Always defined so call sites need no cfg; a no-op without the
    /// feature.
    fn check_invariants(&self) -> Result<(), SimError> {
        #[cfg(feature = "checked")]
        {
            use crate::invariant as inv;
            let cycle = self.cycle;
            let err = |what: String| SimError::Invariant { cycle, what };

            inv::check_rob_order((self.rob_head_seq..self.rob_end_seq).map(|q| self.slot(q).seq))
                .map_err(&err)?;
            // Slab addressing: every in-flight window position must
            // hold the slot fetched for exactly that seq.
            for q in self.rob_head_seq..self.next_seq {
                let held = self.slot(q).seq;
                if held != q {
                    return Err(err(format!("slab slot for seq {q} holds seq {held}")));
                }
            }
            // The fetch unit stops at `fetch_q_cap`, but an
            // invalidation-style runahead exit re-queues up to a whole
            // ROB of squashed slots for re-fetch, so the hard bound is
            // the sum of both.
            inv::check_occupancy(
                "fetch_q",
                self.fetch_q_len(),
                fetch_q_cap(&self.cfg) + self.cfg.rob,
            )
            .map_err(&err)?;
            inv::check_occupancy("rob", self.rob_len(), self.cfg.rob).map_err(&err)?;
            inv::check_occupancy("iq", self.iq_used, self.cfg.iq).map_err(&err)?;
            inv::check_occupancy("lq", self.lq_used, self.cfg.lq).map_err(&err)?;
            inv::check_occupancy("sq", self.stores.len(), self.cfg.sq).map_err(&err)?;
            inv::check_occupancy("store_buffer", self.store_buffer.len(), self.cfg.store_buffer)
                .map_err(&err)?;
            // The flush-time purge keeps the completion queue bounded
            // by the slab even on flush-heavy workloads.
            inv::check_occupancy("wake_events", self.wake_events.len(), self.slab.len())
                .map_err(&err)?;
            self.wake_events.check(cycle, |slot| self.slab[slot].done_at).map_err(&err)?;

            if self.free_int < 0 || self.free_fp < 0 {
                return Err(err(format!(
                    "physical register file over-allocated (free int {}, fp {})",
                    self.free_int, self.free_fp
                )));
            }
            inv::check_free_regs(
                "int",
                self.free_int.max(0) as usize,
                self.cfg.int_regs - Reg::COUNT,
            )
            .map_err(&err)?;
            inv::check_free_regs("fp", self.free_fp.max(0) as usize, self.cfg.fp_regs - Reg::COUNT)
                .map_err(&err)?;

            // Counter-drift recounts against the ROB contents (every
            // ROB entry is dispatched by construction).
            let rob = || (self.rob_head_seq..self.rob_end_seq).map(|q| self.slot(q));
            inv::check_recount("iq", self.iq_used, rob().filter(|s| !s.issued).count())
                .map_err(&err)?;
            inv::check_recount("lq", self.lq_used, rob().filter(|s| s.is_load()).count())
                .map_err(&err)?;
            // The store ring is exactly the ROB's stores: same seqs,
            // order, address and width.
            let rob_stores = rob().filter(|s| s.is_store()).map(Self::in_flight_store);
            if !rob_stores.eq(self.stores.iter().copied()) {
                return Err(err(format!(
                    "store ring disagrees with the ROB's stores: {:?}",
                    self.stores
                )));
            }
            // One queued completion event per issued slot that has not
            // completed: due this cycle or later — or, from a
            // zero-latency unit, scheduled last cycle after that
            // cycle's drain and popping in this one.
            let completing = rob()
                .filter(|s| {
                    s.issued
                        && s.done_at
                            .is_some_and(|d| d >= cycle || (d == s.issue_at && d + 1 == cycle))
                })
                .count();
            inv::check_recount("wake_events", self.wake_events.len(), completing).map_err(&err)?;

            // Dependence sanity: a producer recorded at dispatch is
            // always older than its consumer.
            for (i, s) in rob().enumerate() {
                for src in s.src_seqs.iter().flatten() {
                    if *src >= s.seq {
                        return Err(err(format!(
                            "rob[{i}] seq {} depends on same-or-younger seq {src}",
                            s.seq
                        )));
                    }
                }
            }

            // Event-driven wakeup bookkeeping: the ready list is
            // sorted program order, references only live unissued
            // slots, and covers exactly the slots with no outstanding
            // producers.
            if !self.ready.windows(2).all(|w| w[0] < w[1]) {
                return Err(err(format!("ready list out of order: {:?}", self.ready)));
            }
            if self.rob_head_seq != self.rob_end_seq {
                for &seq in &self.ready {
                    let ok = seq >= self.rob_head_seq && seq < self.rob_end_seq && {
                        let s = self.slot(seq);
                        s.dispatched && !s.issued
                    };
                    if !ok {
                        return Err(err(format!("ready seq {seq} is not a live unissued slot")));
                    }
                }
                for s in rob() {
                    if s.dispatched && !s.issued {
                        let in_ready = self.ready.binary_search(&s.seq).is_ok();
                        if in_ready != (s.pending == 0) {
                            return Err(err(format!(
                                "seq {} pending={} but ready-list membership is {}",
                                s.seq, s.pending, in_ready
                            )));
                        }
                    }
                }
            } else if !self.ready.is_empty() {
                return Err(err("ready list non-empty with empty ROB".to_string()));
            }

            // Runahead containment: speculative requestors never write
            // the memory hierarchy.
            inv::check_no_spec_stores(self.ms.stats().spec_stores).map_err(&err)?;
            // The O(1) half of the prefetch-outcome law; the exact law,
            // which walks the caches, is checked at seal.
            inv::check_prefetch_outcomes(self.ms.stats()).map_err(&err)?;

            // The live engine's own bookkeeping (vector lane masks,
            // DESIGN.md §14).
            if let (Some(_), Some(eng)) = (&self.runahead, &self.engine) {
                eng.invariants().map_err(&err)?;
            }
        }
        Ok(())
    }

    // ---- runahead ---------------------------------------------------

    fn step_runahead(&mut self, c: u64) {
        let Some(ep) = &self.runahead else { return };
        let (end_at, decoupled) = (ep.end_at, ep.decoupled);
        let eng = self.engine.as_mut().expect("a live episode has an engine");
        let mut ctx = RaCtx { prog: &self.prog, mem: &self.mem, ms: &mut self.ms, now: c };
        if eng.step_cycle(&mut ctx, c >= end_at) == VrStatus::Finished {
            // Delayed termination: a coupled engine that finishes past
            // the interval has stalled commit for the difference.
            if !decoupled && c > end_at {
                self.stats.delayed_termination_stall_cycles += c - end_at;
            }
            self.end_episode(c, EpisodeExit::Completed);
        }
    }

    /// Aborts the in-flight runahead episode mid-flight: all
    /// speculative engine state is discarded and the baseline
    /// out-of-order pipeline resumes next cycle. Because runahead
    /// never touches committed state, an abort at any cycle is
    /// architecturally invisible — this is the graceful-degradation
    /// path for engine faults and the `abort_episode` fault-injection
    /// lever. A no-op when no episode is running.
    fn abort_episode(&mut self, c: u64) {
        if self.runahead.is_some() {
            self.stats.runahead_aborts += 1;
            self.end_episode(c, EpisodeExit::Aborted);
        }
    }

    /// Ends the live episode (normal exit or abort): folds the engine's
    /// counters into the run stats, closes the telemetry record, and
    /// pays the exit flush — classic runahead's invalidation, a coupled
    /// vector episode's re-fill of the pipeline it froze; PRE and
    /// decoupled episodes keep the window.
    fn end_episode(&mut self, c: u64, exit: EpisodeExit) {
        let ep = self.runahead.take().expect("an episode is live");
        let n = self.engine.as_ref().expect("a live episode has an engine").counters();
        self.stats.runahead_insts += n.insts;
        self.stats.vr_batches += n.batches;
        self.stats.vr_batches_aborted += n.batches_aborted;
        self.stats.vr_lanes_spawned += n.lanes_spawned;
        self.stats.vr_lanes_invalidated += n.lanes_invalidated;
        self.stats.vr_no_stride_intervals += u64::from(n.no_stride);
        if let Some(t) = &mut self.telemetry {
            t.on_exit(c, &n, exit);
        }
        if !ep.decoupled && self.ra_cfg.kind != RunaheadKind::Precise {
            self.flush_after_head(c);
        }
    }

    /// Which kind of engine this core's episodes run.
    fn episode_kind(&self) -> EpisodeKind {
        if self.ra_cfg.kind == RunaheadKind::Vector {
            EpisodeKind::Vector
        } else {
            EpisodeKind::Scalar
        }
    }

    /// Applies the configured [`crate::FaultPlan`] for this cycle.
    /// Every draw comes from one seeded stream, so a plan's fault
    /// schedule is a pure function of its seed.
    fn inject_faults(&mut self, c: u64) {
        let Some(plan) = self.ra_cfg.fault_plan else { return };
        if self.runahead.is_none() {
            return;
        }
        let Some(mut rng) = self.fault_rng.take() else { return };
        if rng.chance(plan.abort_episode) {
            self.stats.faults_injected += 1;
            self.abort_episode(c);
        } else {
            if rng.chance(plan.force_early_exit) {
                if let Some(ep) = &mut self.runahead {
                    if ep.end_at > c {
                        // The interval "ends" now: vector engines enter
                        // delayed termination, scalar engines exit on
                        // the next step.
                        ep.end_at = c;
                        self.stats.faults_injected += 1;
                    }
                }
            }
            if rng.chance(plan.poison_lanes) {
                let eng = self.engine.as_mut().expect("a live episode has an engine");
                if eng.poison_lanes(&mut rng, 0.5) > 0 {
                    self.stats.faults_injected += 1;
                }
            }
        }
        self.fault_rng = Some(rng);
    }

    fn maybe_trigger(&mut self, c: u64) {
        if self.runahead.is_some() || self.engine.is_none() {
            return;
        }
        // Canonical trigger: back-end full (ROB or an equivalent
        // resource), head is an LLC-missing load whose data has not
        // returned.
        let Some(head) = self.rob_front() else { return };
        let full = self.rob_len() >= self.cfg.rob || self.backend_stalled;
        let blocked =
            head.is_load() && head.issued && !head.done_by(c) && head.hit == Some(HitLevel::Dram);
        if !(full && blocked) {
            return;
        }
        let end_at = head.done_at.expect("issued load has a completion time");
        let trigger_pc = head.step.pc;
        let blocked_dst = head.step.inst.dst();
        let mut cpu = self.committed;
        cpu.set_pc(trigger_pc);
        self.engine.as_mut().expect("checked above").reset(cpu, blocked_dst, None);
        let kind = self.episode_kind();
        if let Some(t) = &mut self.telemetry {
            t.on_enter(trigger_pc, kind, false, c);
        }
        self.runahead = Some(RunaheadEpisode { end_at, decoupled: false });
        self.stats.runahead_entries += 1;
    }

    /// Eager (decoupled) trigger — extension used by `fig-ablation`'s
    /// `+eager` column only. Episodes never overlap, and each lasts
    /// [`EAGER_INTERVAL`] cycles, which is all the spacing triggers
    /// need.
    fn maybe_trigger_eager(&mut self, c: u64, load_pc: u64) {
        if !self.ra_cfg.eager_trigger
            || self.ra_cfg.kind != RunaheadKind::Vector
            || self.runahead.is_some()
        {
            return;
        }
        let Some(entry) = self.ms.stride_detector().entry(load_pc) else { return };
        if self.ms.stride_detector().confident_stride(load_pc).is_none() {
            return;
        }
        let base = Some((load_pc, entry.last_addr));
        let mut cpu = self.committed;
        cpu.set_pc(load_pc);
        let Some(eng) = self.engine.as_mut() else { return };
        eng.reset(cpu, None, base);
        // Clamp the episode against the watchdog budget so a decoupled
        // episode can never outlive the deadlock detector, and saturate
        // the cycle math so a pathological `c` near u64::MAX cannot
        // wrap `end_at` into the past.
        let interval = EAGER_INTERVAL.min(self.cfg.watchdog.saturating_sub(1)).max(1);
        if let Some(t) = &mut self.telemetry {
            t.on_enter(load_pc, EpisodeKind::Vector, true, c);
        }
        self.runahead =
            Some(RunaheadEpisode { end_at: c.saturating_add(interval), decoupled: true });
        self.stats.runahead_entries += 1;
    }

    /// Invalidation-style runahead exit: everything younger than the
    /// ROB head is squashed and re-fetched (its *timing* is reset; the
    /// functional record is reused — see DESIGN.md §4). On the slab
    /// this is pure index arithmetic: the squashed seqs stay in place
    /// and simply become the front of the fetch queue again.
    fn flush_after_head(&mut self, c: u64) {
        if self.rob_len() > 1 {
            let width = self.cfg.width as u64;
            let resume = self.rob_head_seq + 1;
            for q in resume..self.rob_end_seq {
                let i = q - resume;
                let s = self.slot_mut(q);
                s.fetch_at = c + i / width;
                s.dispatched = false;
                s.issued = false;
                s.done_at = None;
                s.hit = None;
                s.src_seqs = [None, None];
                s.pending = 0;
            }
            self.rob_end_seq = resume;
            // Drop the completion events of the producers just
            // squashed, so a stale event can never pop against a slot
            // that has since re-issued and the queue stays bounded by
            // the slab on flush-heavy workloads. Run at flush time
            // (pipeline phases 0–1), every queued event names a seq
            // `>= rob_head_seq`: an event for a committed producer pops
            // no later than the cycle the producer commits (commit is
            // phase 2, the pop phase 5). Keeping `seq < rob_end_seq`
            // therefore keeps exactly the head's own completion event
            // — the blocked load whose return ends the episode.
            self.wake_events.purge(self.rob_end_seq);
        }
        self.recompute_resources();
    }

    fn recompute_resources(&mut self) {
        self.last_writer = [None; RegRef::FLAT_COUNT];
        // Wakeup chains are reset wholesale: consumers re-register at
        // re-dispatch (see crate::wakeup's staleness invariant).
        self.wakeup.clear();
        self.ready.clear();
        self.iq_used = 0;
        self.lq_used = 0;
        self.stores.clear();
        let mut int_alloc = 0isize;
        let mut fp_alloc = 0isize;
        // Both call paths leave at most the ROB head behind, so a
        // surviving unissued slot has no in-flight producers and goes
        // straight to the ready list.
        debug_assert!(self.rob_len() <= 1, "flush leaves at most the head");
        for q in self.rob_head_seq..self.rob_end_seq {
            let s = self.slot_mut(q);
            let unissued = !s.issued;
            if unissued {
                s.pending = 0;
            }
            let (is_load, store, dst, seq) = (
                s.is_load(),
                s.is_store().then(|| Self::in_flight_store(s)),
                s.step.inst.dst(),
                s.seq,
            );
            if unissued {
                self.iq_used += 1;
                self.ready.push(seq);
            }
            if is_load {
                self.lq_used += 1;
            }
            if let Some(store) = store {
                self.stores.push(store);
            }
            if let Some(d) = dst {
                self.last_writer[d.flat_index()] = Some(seq);
                match d {
                    RegRef::Int(_) => int_alloc += 1,
                    RegRef::Fp(_) => fp_alloc += 1,
                }
            }
        }
        self.free_int = self.cfg.int_regs as isize - Reg::COUNT as isize - int_alloc;
        self.free_fp = self.cfg.fp_regs as isize - Reg::COUNT as isize - fp_alloc;
    }

    // ---- commit -----------------------------------------------------

    fn commit(&mut self, c: u64) -> usize {
        // Non-decoupled runahead blocks commit (delayed termination
        // cost for VR; classic exits exactly when the head returns).
        if matches!(&self.runahead, Some(ep) if !ep.decoupled) {
            return 0;
        }
        let mut n = 0;
        while n < self.cfg.width {
            let Some(head) = self.rob_front() else { break };
            if !head.dispatched || !head.done_by(c) {
                break;
            }
            if head.is_store() && self.store_buffer.len() >= self.cfg.store_buffer {
                break;
            }
            let slot = *head;
            self.rob_head_seq += 1;
            // Architectural state.
            if let Some(w) = slot.step.write {
                self.committed.apply(w);
            }
            self.committed.set_pc(slot.step.next_pc);
            // Prefetcher training happens at commit: the stride
            // detector / RPT must observe each load PC's address
            // sequence *in program order* (issue order is scrambled by
            // out-of-order execution and MSHR retries).
            if slot.is_load() {
                let me = slot.step.mem.expect("load has a memory effect");
                let mem = &self.mem;
                self.ms.train_prefetchers(slot.step.pc, me.addr, me.value, c, |a| mem.read(a, 8));
                self.maybe_trigger_eager(c, slot.step.pc);
            }
            // Resources.
            if slot.is_load() {
                self.lq_used -= 1;
            }
            if slot.is_store() {
                let oldest = self.stores.pop_oldest();
                debug_assert_eq!(oldest.map(|s| s.seq), Some(slot.seq), "stores commit in order");
                self.store_buffer
                    .push_back((slot.step.mem.expect("store has addr").addr, slot.step.pc));
            }
            if let Some(d) = slot.step.inst.dst() {
                match d {
                    RegRef::Int(_) => self.free_int += 1,
                    RegRef::Fp(_) => self.free_fp += 1,
                }
                if self.last_writer[d.flat_index()] == Some(slot.seq) {
                    self.last_writer[d.flat_index()] = None;
                }
            }
            if slot.step.inst.is_cond_branch() {
                self.stats.branches += 1;
                if slot.mispredicted {
                    self.stats.mispredicts += 1;
                }
            }
            if let Some(tr) = &mut self.tracer {
                tr.push(TraceRecord {
                    seq: slot.seq,
                    pc: slot.step.pc,
                    inst: slot.step.inst,
                    fetch_at: slot.fetch_at,
                    dispatch_at: slot.dispatch_at,
                    issue_at: slot.issue_at,
                    complete_at: slot.done_at.unwrap_or(c),
                    commit_at: c,
                    mispredicted: slot.mispredicted,
                });
            }
            self.committed_insts += 1;
            self.last_commit_cycle = c;
            n += 1;
            if slot.step.halted {
                self.halted = true;
                break;
            }
        }
        n
    }

    fn drain_store_buffer(&mut self, c: u64) {
        for _ in 0..self.cfg.fu.store_ports {
            let Some(&(addr, pc)) = self.store_buffer.front() else { break };
            match self.ms.access(addr, Access::Store, vr_mem::Requestor::Main, pc, c) {
                Ok(_) => {
                    self.store_buffer.pop_front();
                }
                Err(_) => break,
            }
        }
    }

    // ---- issue / execute -------------------------------------------

    fn new_budget(&self) -> FuBudget {
        FuBudget {
            int_alu: self.cfg.fu.int_alu,
            int_mul: self.cfg.fu.int_mul,
            fp_add: self.cfg.fu.fp_add,
            fp_mul: self.cfg.fu.fp_mul,
            loads: self.cfg.fu.load_ports,
            stores: self.cfg.fu.store_ports,
            total: self.cfg.width,
        }
    }

    /// Drains completion events up to cycle `c` and wakes the waiters
    /// of each completing producer by walking its intrusive chain over
    /// the slab.
    ///
    /// Every popped event is valid by construction: events pop in the
    /// exact cycle they are scheduled for (issue runs every tick and
    /// the fast-forward horizon is bounded by the earliest event), and
    /// the only way an event could go stale — its producer being
    /// squashed by a flush — purges it from the queue at flush time
    /// ([`Self::flush_after_head`]). An event for a producer
    /// that committed *this* cycle (commit is phase 2, this is phase
    /// 5) still finds the producer's slab slot intact, because fetch
    /// (phase 7) has not yet recycled it.
    ///
    /// Equivalence with the old per-cycle O(ROB × srcs) scan: a
    /// consumer used to become issuable at the first cycle `c` with
    /// `producer.done_at <= c` — exactly the cycle this event pops.
    fn process_wake_events(&mut self, c: u64) {
        let mut woke = false;
        while let Some(pidx) = self.wake_events.pop_due(c) {
            debug_assert!(
                self.slab[pidx].seq < self.rob_head_seq
                    || (self.slab[pidx].issued && self.slab[pidx].done_by(c)),
                "stale wake event survived the flush purge"
            );
            let mut link = self.wakeup.drain_head(pidx);
            while link != NO_LINK {
                let next = self.wakeup.take_next(link);
                let s = &mut self.slab[(link >> 1) as usize];
                debug_assert!(s.pending > 0, "woken consumer must be pending");
                s.pending -= 1;
                if s.pending == 0 && !s.issued {
                    self.ready.push(s.seq);
                    woke = true;
                }
                link = next;
            }
        }
        if woke {
            // Multiple producers completing the same cycle can push
            // consumers out of program order; issue priority is oldest
            // first, so restore it.
            self.ready.sort_unstable();
        }
    }

    fn issue(&mut self, c: u64) {
        self.process_wake_events(c);
        if self.ready.is_empty() {
            return;
        }
        let mut budget = self.new_budget();
        debug_assert!(self.rob_head_seq != self.rob_end_seq, "ready implies non-empty ROB");
        let head_seq = self.rob_head_seq;
        let mut load_retry_blocked = false;

        // Walk the ready list in program order, issuing what the FU
        // budget allows and keeping the rest for next cycle. The two
        // ready buffers ping-pong between cycles so neither ever
        // re-allocates in steady state (DESIGN.md §12).
        let mut ready = std::mem::take(&mut self.ready);
        let mut kept = std::mem::take(&mut self.ready_scratch);
        kept.clear();
        for (pos, &seq) in ready.iter().enumerate() {
            if budget.total == 0 {
                kept.extend_from_slice(&ready[pos..]);
                break;
            }
            debug_assert!(seq >= head_seq, "ready entries are in flight");
            let class = self.slot(seq).step.inst.class();

            // Functional-unit availability.
            let lat = match class {
                OpClass::None => {
                    // nop/halt: complete immediately, no FU.
                    let s = self.slot_mut(seq);
                    s.issued = true;
                    s.issue_at = c;
                    s.done_at = Some(c + 1);
                    self.wake_events.push(c, c + 1, seq);
                    self.iq_used -= 1;
                    continue;
                }
                OpClass::IntAlu | OpClass::Branch => {
                    if budget.int_alu == 0 {
                        kept.push(seq);
                        continue;
                    }
                    budget.int_alu -= 1;
                    self.cfg.lat.int_alu
                }
                OpClass::IntMul => {
                    if budget.int_mul == 0 {
                        kept.push(seq);
                        continue;
                    }
                    budget.int_mul -= 1;
                    self.cfg.lat.int_mul
                }
                OpClass::IntDiv => {
                    if self.div_busy_until > c {
                        kept.push(seq);
                        continue;
                    }
                    self.div_busy_until = c + self.cfg.lat.int_div;
                    self.cfg.lat.int_div
                }
                OpClass::FpAdd => {
                    if budget.fp_add == 0 {
                        kept.push(seq);
                        continue;
                    }
                    budget.fp_add -= 1;
                    self.cfg.lat.fp_add
                }
                OpClass::FpMul => {
                    if budget.fp_mul == 0 {
                        kept.push(seq);
                        continue;
                    }
                    budget.fp_mul -= 1;
                    self.cfg.lat.fp_mul
                }
                OpClass::FpDiv => {
                    if self.fdiv_busy_until > c {
                        kept.push(seq);
                        continue;
                    }
                    self.fdiv_busy_until = c + self.cfg.lat.fp_div;
                    self.cfg.lat.fp_div
                }
                OpClass::Load => {
                    if budget.loads == 0 || load_retry_blocked {
                        kept.push(seq);
                        continue;
                    }
                    budget.loads -= 1;
                    0 // handled below
                }
                OpClass::Store => {
                    if budget.stores == 0 {
                        kept.push(seq);
                        continue;
                    }
                    budget.stores -= 1;
                    1 // address generation
                }
            };

            if class == OpClass::Load {
                match self.issue_load(seq, c) {
                    Ok(()) => {}
                    Err(()) => {
                        // MSHR full: retry next cycle; keep program
                        // order among loads.
                        load_retry_blocked = true;
                        kept.push(seq);
                        continue;
                    }
                }
            } else {
                let s = self.slot_mut(seq);
                s.issued = true;
                s.issue_at = c;
                s.done_at = Some(c + lat);
                self.wake_events.push(c, c + lat, seq);
            }
            self.iq_used -= 1;
            budget.total -= 1;
        }
        ready.clear();
        self.ready_scratch = ready;
        self.ready = kept;
    }

    fn issue_load(&mut self, seq: u64, c: u64) -> Result<(), ()> {
        let (addr, bytes, pc) = {
            let s = self.slot(seq);
            let me = s.step.mem.expect("load has a memory effect");
            (me.addr, me.width.bytes() as u8, s.step.pc)
        };
        let forwarded = self.forwarded(seq, addr, bytes, c);
        #[cfg(feature = "checked")]
        assert_eq!(
            forwarded,
            self.forwarded_by_rob_walk(seq, addr, bytes, c),
            "store ring and ROB walk disagree on forwarding for load seq {seq} at cycle {c}"
        );
        let (done, hit) = if forwarded {
            (c + self.ms.config().l1d.latency, HitLevel::L1)
        } else {
            match self.ms.access(addr, Access::Load, vr_mem::Requestor::Main, pc, c) {
                Ok(out) => (out.ready_at, out.hit),
                Err(_) => return Err(()),
            }
        };
        let s = self.slot_mut(seq);
        s.issued = true;
        s.issue_at = c;
        s.done_at = Some(done);
        s.hit = Some(hit);
        self.wake_events.push(c, done, seq);
        Ok(())
    }

    /// Store-to-load forwarding for load `seq` at cycle `c`: from the
    /// nearest older in-flight store that fully covers it, if that
    /// store has executed; that store decides either way.
    fn forwarded(&self, seq: u64, addr: u64, bytes: u8, c: u64) -> bool {
        self.stores.forwarder(seq, addr, bytes).is_some_and(|q| self.slot(q).done_by(c))
    }

    /// The forwarding verdict by the reference method the store ring
    /// replaced: walk the ROB from the load back to the head, one slot
    /// per step. Kept only to assert the ring against.
    #[cfg(feature = "checked")]
    fn forwarded_by_rob_walk(&self, seq: u64, addr: u64, bytes: u8, c: u64) -> bool {
        for q in (self.rob_head_seq..seq).rev() {
            let s = self.slot(q);
            if !s.is_store() {
                continue;
            }
            let sm = s.step.mem.expect("store has addr");
            if sm.addr == addr && sm.width.bytes() >= u64::from(bytes) {
                return s.done_by(c); // nearest older store decides either way
            }
        }
        false
    }

    /// A store slot as the store ring records it.
    fn in_flight_store(s: &Slot) -> InFlightStore {
        let me = s.step.mem.expect("store has addr");
        InFlightStore { seq: s.seq, addr: me.addr, bytes: me.width.bytes() as u8 }
    }

    // ---- dispatch ---------------------------------------------------

    /// Whether a back-end resource — ROB, IQ, LQ/SQ or a free physical
    /// register — blocks dispatching `inst`. The one definition both
    /// dispatch and the fast-forward proof read.
    fn dispatch_blocked(&self, inst: Inst) -> bool {
        self.rob_len() >= self.cfg.rob
            || self.iq_used >= self.cfg.iq
            || (inst.is_load() && self.lq_used >= self.cfg.lq)
            || (inst.is_store() && self.stores.len() >= self.cfg.sq)
            || match inst.dst() {
                Some(RegRef::Int(_)) => self.free_int == 0,
                Some(RegRef::Fp(_)) => self.free_fp == 0,
                None => false,
            }
    }

    fn dispatch(&mut self, c: u64) {
        self.backend_stalled = false;
        for _ in 0..self.cfg.width {
            if self.rob_end_seq == self.next_seq {
                break; // fetch queue empty
            }
            let seq = self.rob_end_seq;
            let front = self.slot(seq);
            if front.fetch_at + self.cfg.frontend_depth > c {
                break;
            }
            let inst = front.step.inst;
            if self.dispatch_blocked(inst) {
                self.backend_stalled = true;
                break;
            }
            // Resolve dependences against in-flight producers and
            // register on their intrusive wakeup chains. `last_writer`
            // only maps in-flight (ROB-resident) producers, so a hit
            // names a live slab slot.
            let cidx = (seq & self.slab_mask) as usize;
            let mut srcs = [None, None];
            let mut pending = 0u8;
            for (k, src) in inst.srcs().enumerate() {
                if let Some(pseq) = self.last_writer[src.flat_index()] {
                    srcs[k] = Some(pseq);
                    let p = self.slot(pseq);
                    if !(p.issued && p.done_by(c)) {
                        pending += 1;
                        self.wakeup.insert((pseq & self.slab_mask) as usize, cidx, k);
                    }
                }
            }
            {
                let s = &mut self.slab[cidx];
                s.dispatched = true;
                s.dispatch_at = c;
                s.src_seqs = srcs;
                s.pending = pending;
            }
            if pending == 0 {
                // New seqs are maximal, so the ready list stays sorted.
                self.ready.push(seq);
            }
            if let Some(d) = inst.dst() {
                self.last_writer[d.flat_index()] = Some(seq);
                match d {
                    RegRef::Int(_) => self.free_int -= 1,
                    RegRef::Fp(_) => self.free_fp -= 1,
                }
            }
            self.iq_used += 1;
            if inst.is_load() {
                self.lq_used += 1;
            }
            if inst.is_store() {
                self.stores.push(Self::in_flight_store(&self.slab[cidx]));
            }
            // The slot joins the ROB in place: dispatch is just the
            // window boundary moving past it.
            self.rob_end_seq += 1;
        }
    }

    // ---- fetch ------------------------------------------------------

    /// Whether the mispredicted branch `bseq` has resolved by cycle `c`
    /// (it left the window, or completed): fetch clears the redirect
    /// then. The one definition both fetch and the fast-forward proof
    /// read. Seq-addressed slab: the branch, if still in flight, lives
    /// at `slot(bseq)` — no scan needed.
    fn branch_resolved(&self, bseq: u64, c: u64) -> bool {
        self.rob_head_seq == self.rob_end_seq
            || bseq < self.rob_head_seq
            || (bseq < self.rob_end_seq && self.slot(bseq).done_by(c))
    }

    fn fetch(&mut self, c: u64) -> Result<(), SimError> {
        // Non-decoupled runahead owns the front-end.
        if matches!(&self.runahead, Some(ep) if !ep.decoupled) {
            return Ok(());
        }
        // Misprediction: fetch resumes the cycle after the branch
        // resolves.
        if let Some(bseq) = self.pending_branch {
            if self.branch_resolved(bseq, c) {
                self.pending_branch = None;
            }
            return Ok(());
        }
        if self.fetch_done {
            return Ok(());
        }
        for _ in 0..self.cfg.width {
            if self.fetch_q_len() >= fetch_q_cap(&self.cfg) {
                break;
            }
            let step = match self.fetch_cpu.step(&self.prog, &mut self.mem) {
                Ok(s) => s,
                // A workload that runs off the program (or jumps to an
                // unmapped pc) is a harness bug: report it as a typed
                // error instead of tearing the process down.
                Err(e) => {
                    return Err(SimError::Program {
                        cycle: c,
                        pc: self.fetch_cpu.pc(),
                        what: e.to_string(),
                    })
                }
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut mispredicted = false;
            let mut stop = false;
            if let Some(taken) = step.taken {
                let pred = self.bp.predict_and_train(step.pc, taken);
                if pred != taken {
                    mispredicted = true;
                    self.pending_branch = Some(seq);
                    stop = true;
                }
            } else if matches!(step.inst.op, vr_isa::Op::Jalr) {
                // Indirect jump: the target must come from the RAS (for
                // returns through the link register) or the BTB;
                // mismatch costs a full redirect like a mispredicted
                // branch.
                let is_return = step.inst.rs1 == Reg::RA.index() as u8;
                let predicted = if is_return {
                    self.ras.pop()
                } else {
                    self.btb.lookup(step.pc).map(|e| e.target)
                };
                if predicted != Some(step.next_pc) {
                    mispredicted = true;
                    self.pending_branch = Some(seq);
                    stop = true;
                }
                if !is_return {
                    self.btb.update(step.pc, step.next_pc, false);
                }
            }
            if matches!(step.inst.op, vr_isa::Op::Jal) && step.inst.rd == Reg::RA.index() as u8 {
                // Call: push the return address for the matching jalr.
                self.ras.push(step.pc + 1);
            }
            if step.halted {
                self.fetch_done = true;
                stop = true;
            }
            let redirected = step.redirected();
            // Window bound (DESIGN.md §12): fetch gates on the
            // fetch-queue cap, so the in-flight window never reaches
            // the slab size and this write cannot alias a live slot.
            debug_assert!(
                self.next_seq - self.rob_head_seq <= self.slab.len() as u64,
                "in-flight window exceeds the slot slab"
            );
            self.slab[(seq & self.slab_mask) as usize] = Slot {
                seq,
                step,
                fetch_at: c,
                dispatched: false,
                dispatch_at: 0,
                issued: false,
                issue_at: 0,
                done_at: None,
                mispredicted,
                src_seqs: [None, None],
                hit: None,
                pending: 0,
            };
            if stop || redirected {
                break; // one taken branch per fetch group
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.cycle)
            .field("committed_insts", &self.committed_insts)
            .field("rob", &self.rob_len())
            .field("runahead", &self.runahead.is_some())
            .finish_non_exhaustive()
    }
}

// These tests live here (not in tests/) because they deliberately
// corrupt the simulator's private scheduler state to prove the
// `checked` invariant layer catches it.
#[cfg(test)]
mod tests {
    use super::*;
    use vr_isa::Asm;

    fn straight_line_sim(n: usize) -> Simulator {
        let mut a = Asm::new();
        for _ in 0..n {
            a.addi(Reg::T0, Reg::T0, 1);
        }
        a.halt();
        Simulator::new(
            CoreConfig::table1(),
            MemConfig::tiny_for_tests(),
            RunaheadConfig::none(),
            a.assemble(),
            Memory::new(),
            &[],
        )
    }

    #[test]
    fn clean_runs_pass_the_invariant_checker() {
        // With `--features checked` this exercises every per-cycle
        // assertion; without it, it is a plain smoke test.
        let stats = straight_line_sim(200).try_run(u64::MAX).expect("clean run");
        assert_eq!(stats.instructions, 201);
    }

    #[test]
    fn slab_covers_window_plus_same_cycle_slack() {
        let cfg = CoreConfig::table1();
        let n = slab_slots(&cfg);
        assert!(n.is_power_of_two());
        assert!(n >= cfg.rob + fetch_q_cap(&cfg) + 2 * cfg.width);
    }

    #[cfg(feature = "checked")]
    #[test]
    fn corrupted_iq_counter_surfaces_as_invariant_error() {
        let mut sim = straight_line_sim(500);
        sim.try_run(5).expect("partial run is clean");
        // Simulate a scheduler bug: the issue-queue counter drifts.
        sim.iq_used = sim.cfg.iq + 1;
        let err = sim.try_run(u64::MAX).unwrap_err();
        let SimError::Invariant { what, .. } = &err else {
            panic!("expected Invariant, got {err}");
        };
        assert!(what.contains("iq"), "message should name the structure: {what}");
    }

    /// Full-simulation differential test for the SoA/SWAR lane engine
    /// (DESIGN.md §14): every golden workload runs once with the SWAR
    /// engine (episode fast-forward active) and once with the pre-SoA
    /// reference engine (episode fast-forward disabled), and the two
    /// runs must agree on *everything observable* — the complete
    /// `SimStats` (cycle-exact, so this also proves the episode skip
    /// exact) and the per-episode telemetry records and totals. Runs
    /// the no-VIR-pipelining ablation and the bounded-termination and
    /// eager-trigger extensions too, so the parity claim covers every
    /// engine mode the simulator can configure; bfs on the
    /// uniform-random graph keeps the divergence (lane invalidation)
    /// path in the diff.
    #[test]
    fn swar_engine_matches_reference_on_golden_workloads() {
        use vr_workloads::{gap, graph::GraphPreset, Scale};

        let configs = [
            RunaheadConfig::vector(),
            RunaheadConfig { vir_pipelining: false, ..RunaheadConfig::vector() },
            RunaheadConfig { termination_slack: Some(64), ..RunaheadConfig::vector() },
            RunaheadConfig { eager_trigger: true, ..RunaheadConfig::vector() },
        ];
        for preset in [GraphPreset::Kron, GraphPreset::Urand] {
            let graph = preset.generate(Scale::Test);
            let w = gap::bfs_on(&graph, preset);
            for ra in &configs {
                let run = |reference: bool| {
                    let mut sim = Simulator::new(
                        CoreConfig::table1(),
                        MemConfig::table1(),
                        ra.clone(),
                        w.program.clone(),
                        w.memory.clone(),
                        &w.init_regs,
                    );
                    if reference {
                        let (core, ra) = (CoreConfig::table1(), ra.clone());
                        sim.set_engine(Box::new(
                            crate::vector::reference::ReferenceVectorRunahead::new(
                                Cpu::new(),
                                &ra,
                                core.width,
                                core.fu.vec_alu,
                            ),
                        ));
                        sim.set_every_cycle(true);
                    }
                    sim.enable_telemetry(4096);
                    let stats = sim.try_run(40_000).expect("golden point runs clean");
                    let tel = sim.telemetry().expect("telemetry enabled");
                    let episodes: Vec<String> = tel.episodes().map(|e| format!("{e:?}")).collect();
                    (stats, episodes, tel.to_json())
                };
                let swar = run(false);
                let reference = run(true);
                assert!(
                    preset != GraphPreset::Urand || swar.0.vr_lanes_invalidated > 0,
                    "bfs_UR must exercise divergence with {ra:?}"
                );
                assert_eq!(swar.0, reference.0, "SimStats diverged on {preset:?} with {ra:?}");
                assert_eq!(
                    swar.1, reference.1,
                    "episode telemetry diverged on {preset:?} with {ra:?}"
                );
                assert_eq!(
                    swar.2, reference.2,
                    "telemetry totals diverged on {preset:?} with {ra:?}"
                );
            }
        }
    }

    /// `n` iterations of `sum += B[A[i]] + B[A[i] + 8]`, `A[i]` a
    /// random line of a 64 MiB span. The loads of `B` are independent
    /// of each other, so a full ROB holds more of them in flight than
    /// there are MSHRs, and `A`'s stride lets Vector Runahead gather
    /// them too. Every line of `B` maps to one L1 set, so a line is
    /// often evicted from the L1 while its miss is still pending, and
    /// the second word's load then merges with a full MSHR file.
    fn mshr_flood(n: u64) -> vr_workloads::Workload {
        let mut mem = Memory::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            mem.write_u64(0x10_0000 + i * 8, (x % (1 << 14)) * 4096);
        }
        let mut a = Asm::new();
        let top = a.here();
        a.ld(Reg::T3, Reg::T2, 0);
        a.add(Reg::T3, Reg::T3, Reg::A1);
        a.ld(Reg::T4, Reg::T3, 0);
        a.addi(Reg::T5, Reg::T3, 8);
        a.ld(Reg::T6, Reg::T5, 0);
        a.add(Reg::S2, Reg::S2, Reg::T4);
        a.add(Reg::S2, Reg::S2, Reg::T6);
        a.addi(Reg::T2, Reg::T2, 8);
        a.blt(Reg::T2, Reg::T1, top);
        a.halt();
        vr_workloads::Workload {
            name: "mshr_flood".into(),
            program: a.assemble(),
            memory: mem,
            init_regs: vec![
                (Reg::T2, 0x10_0000),
                (Reg::T1, 0x10_0000 + n * 8),
                (Reg::A1, 0x4000_0000),
            ],
        }
    }

    /// Every-cycle differential for the fast-forward (DESIGN.md §9,
    /// §14): each input runs once with every skip class on — idle
    /// windows, engine windows through delayed termination, and both
    /// full-MSHR retry classes — and once with `ff_analysis` off, a
    /// full tick per cycle. The complete `SimStats` must agree (cycles,
    /// stall counters, and the memory counters the booked retries
    /// stand in for), and the fast-forwarded run must tick less. Runs
    /// the baseline core, classic runahead, PRE and the four vector
    /// configurations of the SWAR-vs-reference test, on bfs over Kron
    /// and Urand and on a kernel that floods the MSHR file.
    #[test]
    fn fast_forward_matches_every_cycle_ticking() {
        use vr_workloads::{gap, graph::GraphPreset, Scale};

        let configs = [
            RunaheadConfig::none(),
            RunaheadConfig::of(RunaheadKind::Classic),
            RunaheadConfig::of(RunaheadKind::Precise),
            RunaheadConfig::vector(),
            RunaheadConfig { vir_pipelining: false, ..RunaheadConfig::vector() },
            RunaheadConfig { termination_slack: Some(64), ..RunaheadConfig::vector() },
            RunaheadConfig { eager_trigger: true, ..RunaheadConfig::vector() },
        ];
        let inputs = [
            gap::bfs_on(&GraphPreset::Kron.generate(Scale::Test), GraphPreset::Kron),
            gap::bfs_on(&GraphPreset::Urand.generate(Scale::Test), GraphPreset::Urand),
            mshr_flood(8000),
        ];
        for w in &inputs {
            for ra in &configs {
                let run = |every_cycle: bool| {
                    let mut sim = Simulator::new(
                        CoreConfig::table1(),
                        MemConfig::table1(),
                        ra.clone(),
                        w.program.clone(),
                        w.memory.clone(),
                        &w.init_regs,
                    );
                    sim.set_every_cycle(every_cycle);
                    let mut ticks = 0u64;
                    while !sim.finished(40_000) {
                        if sim.advance().expect("runs clean") == Advance::Ticked {
                            ticks += 1;
                        }
                    }
                    (sim.seal_stats(), ticks)
                };
                let (fast, fast_ticks) = run(false);
                let (every, every_ticks) = run(true);
                assert_eq!(fast, every, "SimStats diverged on {} with {ra:?}", w.name);
                assert!(
                    fast_ticks < every_ticks,
                    "no cycle skipped on {} with {ra:?}: {fast_ticks} ticks",
                    w.name
                );
                if w.name == "mshr_flood" {
                    let served: u64 = fast.mem.load_hits.iter().sum();
                    assert!(fast.mem.demand_loads > served, "demand loads must retry");
                    assert!(
                        ra.kind != RunaheadKind::Vector || fast.mem.pf_dropped_mshr > 0,
                        "gathers must retry with {ra:?}"
                    );
                }
            }
        }
    }

    /// The engine's counters fold into `SimStats` at episode exit, yet
    /// a mid-episode `seal_stats` already counts what the live scalar
    /// engine has pre-executed: the count never drops from one call to
    /// the next, and it grows while an episode is live.
    #[test]
    fn mid_episode_seal_counts_live_runahead_insts() {
        use vr_workloads::{gap, graph::GraphPreset, Scale};

        let w = gap::bfs_on(&GraphPreset::Kron.generate(Scale::Test), GraphPreset::Kron);
        let mut sim = Simulator::new(
            CoreConfig::table1(),
            MemConfig::table1(),
            RunaheadConfig::of(RunaheadKind::Classic),
            w.program.clone(),
            w.memory.clone(),
            &w.init_regs,
        );
        let (mut last, mut grew_live) = (0, false);
        while !sim.finished(20_000) {
            sim.advance().expect("runs clean");
            let n = sim.seal_stats().runahead_insts;
            assert!(n >= last, "runahead_insts dropped {last} -> {n} at cycle {}", sim.cycle);
            grew_live |= sim.runahead.is_some() && n > last;
            last = n;
        }
        assert!(grew_live, "no live episode pre-executed anything");
    }

    #[cfg(feature = "checked")]
    #[test]
    fn corrupted_rob_order_surfaces_as_invariant_error() {
        let mut sim = straight_line_sim(500);
        sim.try_run(5).expect("partial run is clean");
        assert!(sim.rob_len() >= 2, "expected in-flight instructions");
        // Swap two sequence numbers: program order is lost.
        let h = sim.rob_head_seq;
        sim.slot_mut(h).seq = h + 1;
        sim.slot_mut(h + 1).seq = h;
        let err = sim.try_run(u64::MAX).unwrap_err();
        assert!(
            matches!(&err, SimError::Invariant { what, .. } if what.contains("order")
                || what.contains("seq")),
            "got {err}"
        );
    }
}
