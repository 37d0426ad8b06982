//! The out-of-order core timing model and runahead orchestration.

use std::collections::VecDeque;

use vr_frontend::{Btb, DirectionPredictor, Ras, TageScL};
use vr_isa::{Cpu, Inst, Memory, OpClass, Program, Reg, RegRef, SplitMix64, Step};
use vr_mem::{Access, HitLevel, MemConfig, MemorySystem};

use crate::config::{CoreConfig, RunaheadConfig, RunaheadKind};
use crate::error::{DeadlockDump, EpisodeStatus, OldestSlot, SimError};
use crate::runahead::{RaCtx, ScalarRunahead};
use crate::stats::SimStats;
use crate::telemetry::{EpisodeExit, EpisodeKind, Telemetry};
use crate::trace::{PipelineTrace, TraceRecord};
use crate::vector::{VectorRunahead, VrStatus};
use crate::wakeup::{CompletionQueue, InFlightStore, StoreRing, WakeupLists, NO_LINK};

/// Cycles a decoupled (eager-trigger extension) vector-runahead
/// episode runs before yielding.
const EAGER_INTERVAL: u64 = 400;

/// Cooperative cross-thread stop handle for a running simulation.
///
/// The simulator cannot be preempted — a simulation is one long
/// synchronous loop — so an external supervisor (the campaign engine's
/// per-point wall-clock deadline) stops it *cooperatively*: install a
/// flag with [`Simulator::set_stop_flag`], trip it from any thread,
/// and [`Simulator::try_run`] returns [`SimError::Deadline`] carrying
/// the same [`DeadlockDump`] snapshot the commit watchdog produces.
/// Cloning shares the flag; tripping is idempotent.
#[derive(Clone, Default, Debug)]
pub struct StopFlag(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl StopFlag {
    /// A fresh, untripped flag.
    pub fn new() -> StopFlag {
        StopFlag::default()
    }

    /// Requests a stop: the simulation returns [`SimError::Deadline`]
    /// at its next scheduler iteration.
    pub fn trip(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether a stop has been requested.
    pub fn is_set(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
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

enum Engine {
    Scalar(Box<ScalarRunahead>),
    Vector(Box<VectorRunahead>),
    /// The pre-SoA scalar-lane engine, swapped in by the differential
    /// test to prove the SWAR engine observably identical (test builds
    /// only; see [`crate::vector::reference`]).
    #[cfg(test)]
    RefVector(Box<crate::vector::reference::ReferenceVectorRunahead>),
}

struct RunaheadEpisode {
    engine: Engine,
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
    /// A live (non-decoupled) vector episode: the *pipeline* is
    /// frozen, but the engine itself still has work, which
    /// [`Simulator::advance`] runs in virtual time.
    vector: bool,
}

/// What one [`Simulator::advance`] call did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Advance {
    /// Skipped a proven no-op window up to the returned cycle without
    /// ticking — no memory-system access was made, so under a chip
    /// clock the core can sleep until the chip catches up.
    Skipped(u64),
    /// A live vector-runahead episode ran its engine on the cheap path
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

    runahead: Option<RunaheadEpisode>,
    /// Parked engines from finished episodes, re-armed in place by the
    /// next trigger so steady-state episodes allocate nothing.
    scalar_pool: Option<Box<ScalarRunahead>>,
    vector_pool: Option<Box<VectorRunahead>>,
    /// Differential-test hook: vector triggers check out the reference
    /// scalar-lane engine instead of the SWAR one.
    #[cfg(test)]
    use_reference_vector: bool,
    /// Seeded fault schedule when a [`crate::FaultPlan`] is configured.
    fault_rng: Option<SplitMix64>,
    /// Dispatch was blocked by a back-end resource (ROB, IQ, LQ/SQ or
    /// physical registers) last cycle. In this RISC ISA nearly every
    /// instruction writes a register, so the PRF binds slightly before
    /// the ROB itself; the runahead trigger therefore fires on any
    /// back-end-full stall behind an LLC miss, which is the paper's
    /// full-ROB trigger in spirit (see DESIGN.md §4).
    backend_stalled: bool,

    /// Cooperative external stop handle (see [`StopFlag`]); checked
    /// once per scheduler iteration in [`Simulator::try_run`].
    stop: Option<StopFlag>,

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
            runahead: None,
            scalar_pool: None,
            vector_pool: None,
            #[cfg(test)]
            use_reference_vector: false,
            fault_rng,
            backend_stalled: false,
            stop: None,
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
    ///   tick, no memory-system access, per-cycle stall counters
    ///   bulk-applied;
    /// * **runs a live vector engine** forward in virtual time through
    ///   a window in which every *other* phase is proven frozen: active
    ///   cycles (gather issue, chain stepping) execute the engine's own
    ///   `step_cycle` at the exact timestamps the full ticks would have,
    ///   without the phase walk, and idle stretches jump via
    ///   `idle_until`. The engine touches only its own state and the
    ///   memory system, so the hierarchy observes exactly the unskipped
    ///   access order. The cycle that *finishes* the episode is left
    ///   for a real tick; or
    /// * **ticks** the full pipeline for one cycle, then applies the
    ///   watchdog and stop-flag checks.
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
            if !w.vector {
                self.apply_fast_forward(w.horizon, w.stalled);
                return Ok(Advance::Skipped(w.horizon));
            }
            let c = self.cycle;
            let one_event = self.ms.shared_attached();
            let ep = self.runahead.as_mut().expect("a vector window implies a live episode");
            let end_at = ep.end_at;
            let Engine::Vector(eng) = &mut ep.engine else {
                unreachable!("ff_analysis saw a vector engine")
            };
            let mut t = c;
            let mut stepped = false;
            loop {
                match eng.idle_until(t, end_at) {
                    Some(i) if i > t => t = i.min(w.horizon),
                    _ if t < end_at => {
                        let mut ctx =
                            RaCtx { prog: &self.prog, mem: &self.mem, ms: &mut self.ms, now: t };
                        let status = eng.step_cycle(&mut ctx, false);
                        debug_assert_eq!(
                            status,
                            VrStatus::Working,
                            "a vector engine cannot finish before end_at"
                        );
                        t += 1;
                        stepped = true;
                    }
                    _ => break, // the finishing cycle needs a real tick
                }
                if one_event || t >= w.horizon {
                    break;
                }
            }
            if t > c {
                self.apply_fast_forward(t, w.stalled);
                return Ok(if stepped { Advance::EngineStepped } else { Advance::Skipped(t) });
            }
        }
        self.try_tick()?;
        if self.cycle - self.last_commit_cycle >= self.cfg.watchdog {
            return Err(SimError::Deadlock(Box::new(self.deadlock_dump())));
        }
        // Cooperative wall-clock deadline: one branch when no flag
        // is installed, one relaxed atomic load when one is — a
        // supervisor can stop a slow point without preemption.
        if self.stop.as_ref().is_some_and(StopFlag::is_set) {
            return Err(SimError::Deadline(Box::new(self.deadlock_dump())));
        }
        Ok(Advance::Ticked)
    }

    /// Folds the live counters (cycles, committed instructions, memory
    /// statistics) into [`SimStats`] and returns the snapshot — the
    /// tail of [`Self::try_run`], exposed for external clock owners.
    /// Idempotent; safe to call mid-run.
    pub fn seal_stats(&mut self) -> SimStats {
        self.stats.cycles = self.cycle;
        self.stats.instructions = self.committed_insts;
        self.stats.mshr_occupancy_integral = self.ms.mshr_occupancy_integral();
        self.stats.mem = *self.ms.stats();
        self.stats
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
        if r.kind == RunaheadKind::Vector && (r.vr_lanes == 0 || r.chain_budget == 0) {
            return bad(format!(
                "vector runahead needs vr_lanes > 0 and chain_budget > 0 (got {}/{})",
                r.vr_lanes, r.chain_budget
            ));
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
            kind: match &ep.engine {
                Engine::Scalar(_) => "Scalar".to_string(),
                _ => "Vector".to_string(),
            },
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

    /// Installs a cooperative [`StopFlag`]: when tripped (from any
    /// thread), the running [`Self::try_run`] returns
    /// [`SimError::Deadline`] at its next scheduler iteration. Stats
    /// are bit-identical with or without an (untripped) flag — the
    /// flag is only read, never influences timing.
    pub fn set_stop_flag(&mut self, flag: StopFlag) {
        self.stop = Some(flag);
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

    /// Enables runahead-episode *and* prefetch-lifecycle telemetry,
    /// each retaining the last `capacity` completed records. The
    /// reported [`SimStats`] are bit-identical with telemetry on or
    /// off — the trackers only observe transitions the simulator and
    /// memory system already perform.
    pub fn enable_telemetry(&mut self, capacity: usize) {
        self.telemetry = Some(Box::new(Telemetry::new(capacity)));
        self.ms.enable_telemetry(capacity);
    }

    /// The runahead-episode tracker, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// The memory system's prefetch-lifecycle tracker, if enabled.
    pub fn pf_telemetry(&self) -> Option<&vr_mem::PfTelemetry> {
        self.ms.telemetry()
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
    /// core's [`Self::advance`] stops a vector engine after one event
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
    /// producers' events ([`Self::flush_after_head`]) this is
    /// bounded by the slot-slab size on any workload, however
    /// flush-heavy — a property the `checked` feature asserts every
    /// cycle and a regression test pins.
    pub fn wake_events_len(&self) -> usize {
        self.wake_events.len()
    }

    /// Capacities of the vector engine's steady-state-critical buffers
    /// (`pending_gather`, the gather scratch, lane columns), from
    /// whichever engine exists — live episode or pool. `None` until
    /// the first vector episode. Diagnostic for the alloc-budget test:
    /// these must not grow across the ROI.
    #[doc(hidden)]
    pub fn vector_buffer_caps(&self) -> Option<(usize, usize, usize)> {
        if let Some(ep) = &self.runahead {
            if let Engine::Vector(eng) = &ep.engine {
                return Some(eng.buffer_caps());
            }
        }
        self.vector_pool.as_deref().map(VectorRunahead::buffer_caps)
    }

    /// Differential-test hook (unit tests only): route vector triggers
    /// to the pre-SoA reference engine.
    #[cfg(test)]
    fn set_use_reference_vector(&mut self, on: bool) {
        self.use_reference_vector = on;
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
        if committed == 0 && !self.halted {
            self.stats.commit_stall_cycles += 1;
            if self.rob_len() >= self.cfg.rob || self.backend_stalled {
                self.stats.full_rob_stall_cycles += 1;
            }
        }
        if self.runahead.is_some() {
            self.stats.runahead_cycles += 1;
        }
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
    ///   running, and (when a trigger is configured) the head is not a
    ///   DRAM-blocked load, so the trigger predicate — whose inputs
    ///   are all frozen — stays false;
    /// * commit: the ROB head has not completed, and its completion
    ///   event bounds the skip horizon;
    /// * store drain: the post-commit store buffer is empty and only
    ///   commit refills it;
    /// * issue: the ready list is empty and the earliest wakeup event
    ///   bounds the horizon, so no instruction becomes ready earlier;
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
    /// A second skip class covers *runahead episodes* (DESIGN.md §14):
    /// a non-decoupled episode freezes commit, fetch and the trigger
    /// by construction, so whenever the engine itself reports an idle
    /// window (waiting on a gather barrier, or dead until the interval
    /// expires) and the back end has no pending work, the same bulk
    /// skip applies with the engine's next event as an extra horizon
    /// bound. A live *vector* engine needs no idle precondition: the
    /// window is reported with `vector` set and `advance` runs the
    /// engine through it. Fault injection draws from its RNG every
    /// cycle an episode is live, so any armed fault plan disables the
    /// episode skip entirely.
    fn ff_analysis(&self) -> Option<FfWindow> {
        if !self.ready.is_empty() || !self.store_buffer.is_empty() {
            return None;
        }
        let c = self.cycle;

        let mut engine_idle = None;
        let mut vector = false;
        if let Some(ep) = &self.runahead {
            // Decoupled episodes leave the whole pipeline live; a
            // fault plan consumes RNG per episode cycle.
            if ep.decoupled || self.fault_rng.is_some() {
                return None;
            }
            match &ep.engine {
                Engine::Scalar(eng) => match eng.idle_until(c, ep.end_at) {
                    Some(t) if t > c => engine_idle = Some(t),
                    _ => return None, // engine may act this cycle
                },
                // No idle precondition: `advance` runs the engine
                // forward in virtual time (active cycles stepped,
                // idle windows jumped).
                Engine::Vector(_) => vector = true,
                // The reference path never skips: the differential
                // test runs it unskipped against the fast-forwarded
                // SWAR path, proving the skip cycle-exact.
                #[cfg(test)]
                Engine::RefVector(_) => return None,
            }
            // Commit, trigger and fetch are frozen by the episode
            // itself; only dispatch below needs checking.
        } else {
            // Commit and trigger must be frozen.
            let mut head_blocked_dram = false;
            if let Some(head) = self.rob_front() {
                if head.done_by(c) {
                    return None; // commit acts this cycle
                }
                head_blocked_dram =
                    head.is_load() && head.issued && head.hit == Some(HitLevel::Dram);
            }
            if self.ra_cfg.kind != RunaheadKind::None && head_blocked_dram {
                // The runahead trigger could fire as soon as the back
                // end reports full; don't reason about it, just don't
                // skip.
                return None;
            }

            // Fetch must be frozen.
            if let Some(bseq) = self.pending_branch {
                let resolved = if self.rob_head_seq == self.rob_end_seq || bseq < self.rob_head_seq
                {
                    true
                } else {
                    bseq < self.rob_end_seq && self.slot(bseq).done_by(c)
                };
                if resolved {
                    return None; // fetch clears the redirect this cycle
                }
            } else if !self.fetch_done && self.fetch_q_len() < fetch_q_cap(&self.cfg) {
                return None; // fetch has work
            }
        }

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
                let inst = front.step.inst;
                let blocked = self.rob_len() >= self.cfg.rob
                    || self.iq_used >= self.cfg.iq
                    || (inst.is_load() && self.lq_used >= self.cfg.lq)
                    || (inst.is_store() && self.stores.len() >= self.cfg.sq)
                    || match inst.dst() {
                        Some(RegRef::Int(_)) => self.free_int == 0,
                        Some(RegRef::Fp(_)) => self.free_fp == 0,
                        None => false,
                    };
                if !blocked {
                    return None; // dispatch acts this cycle
                }
                stalled = true;
            }
        }

        // Horizon: the earliest cycle anything can happen — the next
        // completion event, the dispatch time gate, the runahead
        // engine's next event, or the watchdog deadline (exclusive of
        // the reporting cycle itself).
        let mut target = self.last_commit_cycle.saturating_add(self.cfg.watchdog - 1);
        if let Some(t) = engine_idle {
            target = target.min(t);
        }
        if let Some(t) = self.wake_events.next_time(c) {
            target = target.min(t);
        }
        if let Some(gate) = dispatch_gate {
            target = target.min(gate);
        }
        (target > c).then_some(FfWindow { horizon: target, stalled, vector })
    }

    /// Skip cycles `self.cycle .. t`: bulk-apply the per-cycle stats
    /// the skipped (or engine-only) ticks would have recorded.
    fn apply_fast_forward(&mut self, t: u64, stalled: bool) {
        let delta = t - self.cycle;
        self.cycle = t;
        self.stats.commit_stall_cycles += delta;
        if self.rob_len() >= self.cfg.rob || stalled {
            self.stats.full_rob_stall_cycles += delta;
        }
        self.backend_stalled = stalled;
        if self.runahead.is_some() {
            self.stats.runahead_cycles += delta;
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

            // Vector lane-mask accounting (DESIGN.md §14).
            if let Some(ep) = &self.runahead {
                if let Engine::Vector(eng) = &ep.engine {
                    eng.lane_mask_invariants().map_err(&err)?;
                }
            }
        }
        Ok(())
    }

    // ---- runahead ---------------------------------------------------

    fn step_runahead(&mut self, c: u64) {
        let Some(ep) = &mut self.runahead else { return };
        let interval_over = c >= ep.end_at;
        let mut finished = false;
        let mut flush = false;
        match &mut ep.engine {
            Engine::Scalar(eng) => {
                if interval_over {
                    finished = true;
                    flush = self.ra_cfg.kind == RunaheadKind::Classic;
                } else {
                    let mut ctx =
                        RaCtx { prog: &self.prog, mem: &self.mem, ms: &mut self.ms, now: c };
                    self.stats.runahead_insts += eng.step_cycle(&mut ctx);
                }
            }
            Engine::Vector(eng) => {
                let mut ctx = RaCtx { prog: &self.prog, mem: &self.mem, ms: &mut self.ms, now: c };
                if eng.step_cycle(&mut ctx, interval_over) == VrStatus::Finished {
                    finished = true;
                    flush = !ep.decoupled;
                    if !ep.decoupled && c > ep.end_at {
                        self.stats.delayed_termination_stall_cycles += c - ep.end_at;
                    }
                }
            }
            #[cfg(test)]
            Engine::RefVector(eng) => {
                let mut ctx = RaCtx { prog: &self.prog, mem: &self.mem, ms: &mut self.ms, now: c };
                if eng.step_cycle(&mut ctx, interval_over) == VrStatus::Finished {
                    finished = true;
                    flush = !ep.decoupled;
                    if !ep.decoupled && c > ep.end_at {
                        self.stats.delayed_termination_stall_cycles += c - ep.end_at;
                    }
                }
            }
        }
        if finished {
            let ep = self.runahead.take().expect("episode exists");
            self.accumulate_episode_stats(&ep, c, EpisodeExit::Completed);
            if flush {
                self.flush_after_head(c);
            }
            self.release_engine(ep.engine);
        }
    }

    /// Folds an ending episode's engine counters into the run stats
    /// and closes the telemetry record (shared by the normal exit path
    /// and fault-induced aborts).
    fn accumulate_episode_stats(&mut self, ep: &RunaheadEpisode, c: u64, exit: EpisodeExit) {
        // (found_stride, batches, batches_aborted, spawned,
        // invalidated) for whichever vector engine ran.
        let vec_counters = match &ep.engine {
            Engine::Scalar(_) => None,
            Engine::Vector(eng) => Some((
                eng.found_stride,
                eng.batches,
                eng.batches_aborted,
                eng.lanes_spawned,
                eng.lanes_invalidated,
            )),
            #[cfg(test)]
            Engine::RefVector(eng) => Some((
                eng.found_stride,
                eng.batches,
                eng.batches_aborted,
                eng.lanes_spawned,
                eng.lanes_invalidated,
            )),
        };
        if let Some((found_stride, batches, aborted, spawned, invalidated)) = vec_counters {
            self.stats.vr_batches += batches;
            self.stats.vr_batches_aborted += aborted;
            self.stats.vr_lanes_spawned += spawned;
            self.stats.vr_lanes_invalidated += invalidated;
            if !found_stride {
                self.stats.vr_no_stride_intervals += 1;
            }
        }
        if let Some(t) = &mut self.telemetry {
            let (batches, batches_aborted, lanes_spawned, lanes_invalidated) = match vec_counters {
                None => (0, 0, 0, 0),
                Some((_, b, ba, ls, li)) => (b, ba, ls, li),
            };
            t.on_exit(c, batches, batches_aborted, lanes_spawned, lanes_invalidated, exit);
        }
    }

    /// Parks a finished episode's engine for reuse by the next trigger
    /// — the steady-state trigger path allocates nothing (DESIGN.md
    /// §12).
    fn release_engine(&mut self, engine: Engine) {
        match engine {
            Engine::Scalar(eng) => self.scalar_pool = Some(eng),
            Engine::Vector(eng) => self.vector_pool = Some(eng),
            // The reference engine is test-only; no pooling needed.
            #[cfg(test)]
            Engine::RefVector(_) => {}
        }
    }

    /// Takes the pooled scalar engine (or builds the first one),
    /// re-armed for a fresh episode.
    fn checkout_scalar(&mut self, cpu: Cpu, blocked_dst: Option<RegRef>) -> Box<ScalarRunahead> {
        match self.scalar_pool.take() {
            Some(mut eng) => {
                eng.reset(cpu, blocked_dst, self.cfg.width);
                eng
            }
            None => Box::new(ScalarRunahead::new(cpu, blocked_dst, self.cfg.width)),
        }
    }

    /// Checks out a vector engine as an [`Engine`] — the SWAR engine,
    /// or the differential reference model when the test hook asks for
    /// it.
    fn checkout_vector_engine(&mut self, cpu: Cpu) -> Engine {
        #[cfg(test)]
        if self.use_reference_vector {
            return Engine::RefVector(Box::new(
                crate::vector::reference::ReferenceVectorRunahead::new(
                    cpu,
                    &self.ra_cfg,
                    self.cfg.width,
                    self.cfg.fu.vec_alu,
                ),
            ));
        }
        Engine::Vector(self.checkout_vector(cpu))
    }

    /// Takes the pooled vector engine (or builds the first one),
    /// re-armed for a fresh episode.
    fn checkout_vector(&mut self, cpu: Cpu) -> Box<VectorRunahead> {
        match self.vector_pool.take() {
            Some(mut eng) => {
                eng.reset(cpu, &self.ra_cfg, self.cfg.width, self.cfg.fu.vec_alu);
                eng
            }
            None => Box::new(VectorRunahead::new(
                cpu,
                &self.ra_cfg,
                self.cfg.width,
                self.cfg.fu.vec_alu,
            )),
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
        let Some(ep) = self.runahead.take() else { return };
        self.accumulate_episode_stats(&ep, c, EpisodeExit::Aborted);
        self.stats.runahead_aborts += 1;
        // Mirror the timing consequences of the normal exit path:
        // classic runahead pays its invalidation flush; a coupled
        // vector episode re-fills the pipeline it had frozen.
        let flush = match &ep.engine {
            Engine::Scalar(_) => self.ra_cfg.kind == RunaheadKind::Classic,
            _ => !ep.decoupled,
        };
        if flush {
            self.flush_after_head(c);
        }
        self.release_engine(ep.engine);
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
                if let Some(ep) = &mut self.runahead {
                    let n = match &mut ep.engine {
                        Engine::Scalar(_) => 0,
                        Engine::Vector(eng) => eng.poison_lanes(&mut rng, 0.5),
                        #[cfg(test)]
                        Engine::RefVector(eng) => eng.poison_lanes(&mut rng, 0.5),
                    };
                    if n > 0 {
                        self.stats.faults_injected += 1;
                    }
                }
            }
        }
        self.fault_rng = Some(rng);
    }

    fn maybe_trigger(&mut self, c: u64) {
        if self.runahead.is_some() || self.ra_cfg.kind == RunaheadKind::None {
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
        let engine = match self.ra_cfg.kind {
            RunaheadKind::Classic => Engine::Scalar(self.checkout_scalar(cpu, blocked_dst)),
            // PRE's slice filtering focuses the same front-end
            // bandwidth on load slices; modelled at core width with no
            // exit flush (DESIGN.md §4).
            RunaheadKind::Precise => Engine::Scalar(self.checkout_scalar(cpu, blocked_dst)),
            RunaheadKind::Vector => self.checkout_vector_engine(cpu),
            RunaheadKind::None => unreachable!(),
        };
        if let Some(t) = &mut self.telemetry {
            let kind = match &engine {
                Engine::Scalar(_) => EpisodeKind::Scalar,
                _ => EpisodeKind::Vector,
            };
            t.on_enter(trigger_pc, kind, false, c);
        }
        self.runahead = Some(RunaheadEpisode { engine, end_at, decoupled: false });
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
        let last_addr = entry.last_addr;
        let mut cpu = self.committed;
        cpu.set_pc(load_pc);
        let mut engine = self.checkout_vector_engine(cpu);
        match &mut engine {
            Engine::Vector(eng) => eng.seed_base(load_pc, last_addr),
            #[cfg(test)]
            Engine::RefVector(eng) => eng.seed_base(load_pc, last_addr),
            Engine::Scalar(_) => unreachable!("vector trigger checks out a vector engine"),
        }
        // Clamp the episode against the watchdog budget so a decoupled
        // episode can never outlive the deadlock detector, and saturate
        // the cycle math so a pathological `c` near u64::MAX cannot
        // wrap `end_at` into the past.
        let interval = EAGER_INTERVAL.min(self.cfg.watchdog.saturating_sub(1)).max(1);
        if let Some(t) = &mut self.telemetry {
            t.on_enter(load_pc, EpisodeKind::Vector, true, c);
        }
        self.runahead =
            Some(RunaheadEpisode { engine, end_at: c.saturating_add(interval), decoupled: true });
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
        // Store-to-load forwarding from the nearest older in-flight
        // store that fully covers this load, if it has executed; that
        // store decides either way.
        let forwarded =
            self.stores.forwarder(seq, addr, bytes).is_some_and(|q| self.slot(q).done_by(c));
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
            let blocked = self.rob_len() >= self.cfg.rob
                || self.iq_used >= self.cfg.iq
                || (inst.is_load() && self.lq_used >= self.cfg.lq)
                || (inst.is_store() && self.stores.len() >= self.cfg.sq)
                || match inst.dst() {
                    Some(RegRef::Int(_)) => self.free_int == 0,
                    Some(RegRef::Fp(_)) => self.free_fp == 0,
                    None => false,
                };
            if blocked {
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

    fn fetch(&mut self, c: u64) -> Result<(), SimError> {
        // Non-decoupled runahead owns the front-end.
        if matches!(&self.runahead, Some(ep) if !ep.decoupled) {
            return Ok(());
        }
        // Misprediction: fetch resumes the cycle after the branch
        // resolves.
        if let Some(bseq) = self.pending_branch {
            // Seq-addressed slab: the branch (if still in flight)
            // lives at `slot(bseq)` — no scan needed.
            let resolved = if self.rob_head_seq == self.rob_end_seq || bseq < self.rob_head_seq {
                true
            } else {
                bseq < self.rob_end_seq && self.slot(bseq).done_by(c)
            };
            if resolved {
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
    /// exact), the per-episode telemetry records, and the prefetch
    /// lifecycle telemetry. Runs the no-VIR-pipelining ablation and
    /// the bounded-termination and eager-trigger extensions too, so
    /// the parity claim covers every engine mode the simulator can
    /// configure; bfs on the uniform-random graph keeps the divergence
    /// (lane invalidation) path in the diff.
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
                    sim.set_use_reference_vector(reference);
                    sim.enable_telemetry(4096);
                    let stats = sim.try_run(40_000).expect("golden point runs clean");
                    let tel = sim.telemetry().expect("telemetry enabled");
                    let episodes: Vec<String> = tel.episodes().map(|e| format!("{e:?}")).collect();
                    let totals = tel.to_json();
                    let pf = sim.pf_telemetry().map(|p| p.to_json());
                    (stats, episodes, totals, pf)
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
                assert_eq!(
                    swar.3, reference.3,
                    "prefetch telemetry diverged on {preset:?} with {ra:?}"
                );
            }
        }
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
