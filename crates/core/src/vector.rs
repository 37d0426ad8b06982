//! The Vector Runahead engine (the paper's contribution).
//!
//! On entering a runahead interval, the engine *scans* the future
//! instruction stream from the committed architectural state until it
//! meets a load the stride detector is confident about. It then
//! *speculatively vectorizes*: K scalar-equivalent lanes are forked,
//! lane *l* executing the striding load at `addr + stride·(l+1)`
//! (future loop iterations), and every instruction whose sources are
//! tainted by the striding load executes K-wide (SIMT). All K
//! addresses of a tainted ("gather") load issue to the memory system
//! together — MSHR-limited — and the chain *waits* for the slowest
//! lane before the next dependence level: this is how VR reaches the
//! second, third, … level of an indirect chain, which INV-based scalar
//! runahead cannot.
//!
//! Control flow follows lane 0; lanes whose next PC diverges are
//! invalidated (ISCA'21 semantics — no reconvergence stack). When
//! lane 0 returns to the striding load, the batch is complete; if the
//! blocking load has meanwhile returned, the engine still finishes the
//! in-flight batch first (*delayed termination*), stalling commit.
//!
//! # Data-parallel lane execution (DESIGN.md §14)
//!
//! Lane state is struct-of-arrays: per-lane PCs and both register
//! files live in flat column vectors inside [`Batch`] (register *r* of
//! lane *l* at `r·K + l`), and the per-lane `active`/`done` bools are
//! [`LaneMask`] bit words, so lane scans, divergence filtering and
//! fault poisoning are single-word bit operations. Each
//! chain instruction is decoded once and stepped across all K lanes by
//! a branchless column loop (the op match is hoisted out of the lane
//! loop); gather levels run as fused sweeps — all K addresses, then
//! all K overlay lookups, then the register writes — before the memory
//! system is touched (chaining discipline per Saturn). Lane stores go
//! to small per-lane *delta* overlays layered over the shared scan
//! overlay instead of K full overlay copies per batch. All of this is
//! observably equivalent to the scalar reference model kept under
//! `#[cfg(test)]` below (see the differential tests).
//!
//! # Hot-path memory discipline (DESIGN.md §12)
//!
//! The simulator builds one engine per core and re-arms it at every
//! trigger (`RunaheadEngine::reset`). Scan and batch state are persistent
//! sub-structs selected by a [`PhaseKind`] discriminant (no per-phase
//! boxes), lane columns are sized to `vr_lanes` once, at construction
//! (as are `pending_gather` and every scratch buffer), and
//! overlays propagate via `StoreOverlay::merge_from` instead of
//! `clone`. In steady state a batch allocates nothing.

use vr_isa::{Cpu, FReg, Inst, Op, Program, Reg, RegRef, SplitMix64, StoreOverlay, Width};

use crate::config::RunaheadConfig;
use crate::invariant;
use crate::runahead::{EpisodeCounters, Idle, RaCtx, RunaheadEngine, VrStatus};
use vr_mem::{Access, MemConfig, MemorySystem, Requestor, StrideDetector};

/// How many scalar gather sub-accesses the vector unit can inject into
/// the memory pipeline per cycle (one full AVX-512-equivalent vector
/// of 8×64-bit lanes).
const GATHER_ISSUE_PER_CYCLE: usize = 8;

/// Hard cap on the vectorization degree K: lane masks are fixed-width
/// bit words ([`LaneMask::WORDS`] × 64 lanes).
pub(crate) const MAX_LANES: usize = LaneMask::WORDS * 64;

/// Maximum instructions followed along one dependence chain before the
/// batch is abandoned (the literature's 200-instruction runahead
/// timeout).
pub(crate) const CHAIN_BUDGET: usize = 200;

/// Instructions the scalar scan may process while looking for a
/// striding load before giving up on vectorizing this interval.
pub(crate) const SCAN_BUDGET: usize = 512;

/// One bit per lane, packed into machine words so scan/filter/
/// poisoning are word-wide bit operations instead of per-lane bool
/// walks.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub(crate) struct LaneMask([u64; LaneMask::WORDS]);

impl LaneMask {
    pub(crate) const WORDS: usize = 4;

    /// Mask with lanes `0..k` set.
    fn prefix(k: usize) -> LaneMask {
        debug_assert!(k <= MAX_LANES);
        let mut m = LaneMask::default();
        let (full, rem) = (k / 64, k % 64);
        for w in m.0.iter_mut().take(full) {
            *w = u64::MAX;
        }
        if rem > 0 {
            m.0[full] = (1u64 << rem) - 1;
        }
        m
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1u64 << (i % 64));
    }

    #[cfg(test)]
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] & (1u64 << (i % 64)) != 0
    }

    #[inline]
    fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Lowest set lane index ("lane 0" of the live group).
    #[inline]
    fn first(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// Highest set lane index (the most advanced surviving lane).
    #[inline]
    fn last(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + 63 - w.leading_zeros() as usize)
    }

    /// Ascending lane-index iterator (bit-scan via `trailing_zeros`).
    #[inline]
    fn iter(self) -> impl Iterator<Item = usize> {
        let mut words = self.0;
        let mut wi = 0usize;
        std::iter::from_fn(move || loop {
            if wi == LaneMask::WORDS {
                return None;
            }
            let w = words[wi];
            if w == 0 {
                wi += 1;
                continue;
            }
            words[wi] = w & (w - 1);
            return Some(wi * 64 + w.trailing_zeros() as usize);
        })
    }

    /// Raw words (for the mask invariant checks in `invariant.rs`).
    pub(crate) fn words(&self) -> &[u64] {
        &self.0
    }
}

impl std::ops::BitAnd for LaneMask {
    type Output = LaneMask;
    fn bitand(mut self, rhs: LaneMask) -> LaneMask {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a &= b;
        }
        self
    }
}

impl std::ops::BitOr for LaneMask {
    type Output = LaneMask;
    fn bitor(mut self, rhs: LaneMask) -> LaneMask {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a |= b;
        }
        self
    }
}

impl std::ops::Not for LaneMask {
    type Output = LaneMask;
    fn not(mut self) -> LaneMask {
        for w in self.0.iter_mut() {
            *w = !*w;
        }
        self
    }
}

impl std::ops::BitAndAssign for LaneMask {
    fn bitand_assign(&mut self, rhs: LaneMask) {
        *self = *self & rhs;
    }
}

impl std::ops::BitOrAssign for LaneMask {
    fn bitor_assign(&mut self, rhs: LaneMask) {
        *self = *self | rhs;
    }
}

/// Visits each lane of `mask` ascending. The dense case — every lane
/// of `0..k` live, by far the common one — is dispatched to a straight
/// counted loop so per-op column kernels stay branchless and
/// autovectorizable; sparse masks fall back to bit-scan iteration.
#[inline(always)]
fn for_each_lane(mask: LaneMask, k: usize, mut f: impl FnMut(usize)) {
    if mask == LaneMask::prefix(k) {
        for l in 0..k {
            f(l);
        }
    } else {
        for l in mask.iter() {
            f(l);
        }
    }
}

/// Struct-of-arrays lane state plus the chain bookkeeping of the
/// current batch. Every batch forks the same K = `vr_lanes` lanes,
/// fixed at construction, so K is also the column stride and a
/// re-armed engine never reallocates.
#[derive(Clone, Debug)]
struct Batch {
    stride_pc: u64,
    /// K: the lanes of every batch, and the column stride.
    lanes: usize,
    /// Per-lane next PC (the lockstep group shares one fetch PC; these
    /// only diverge transiently at control ops, and divergent lanes
    /// are immediately invalidated).
    pcs: Vec<u64>,
    /// Integer register columns: register `r` of lane `l` at
    /// `r·lanes + l`. The `x0` column is never written.
    xcols: Vec<u64>,
    /// Floating-point register columns, same layout.
    fcols: Vec<f64>,
    /// Per-lane *delta* store overlays, layered over the (frozen
    /// during the batch) scan overlay: lane loads read delta → base →
    /// memory, lane stores write the delta only.
    overlays: Vec<StoreOverlay>,
    /// Executing in the current SIMT group.
    active: LaneMask,
    /// Reached the chain termination point.
    done: LaneMask,
    /// Invalidated by fault injection (accounting only; disjoint from
    /// `active` by construction).
    poisoned: LaneMask,
    /// Lanes with a gather sub-access in the in-flight level.
    at_gather: LaneMask,
    taint: [bool; RegRef::FLAT_COUNT],
    /// Cycle at which each architectural register's *data* is
    /// available to the chain. Gathers set their destination's entry
    /// to the slowest lane's fill time; consumers stall on it, but
    /// instructions that don't read gather results (e.g. the loop
    /// back-edge) flow past — this is what lets delayed termination
    /// leave once the final level's accesses are *generated* rather
    /// than *returned*.
    reg_ready: [u64; RegRef::FLAT_COUNT],
    /// Structural barrier: no chain progress before this cycle.
    wait_until: u64,
    /// Gather sub-accesses of the in-flight level; entries before
    /// `gather_cursor` have been accepted by the memory system
    /// (cursor-consumed so the buffer never shifts or reallocates).
    pending_gather: Vec<(usize, u64)>,
    gather_cursor: usize,
    /// Destination register of the in-flight gather.
    gather_dst: Option<usize>,
    gather_ready_max: u64,
    /// Ready time of the first vector copy (first 8 lanes) of the
    /// in-flight gather level.
    first_copy_ready: u64,
    /// Sub-accesses issued so far for the in-flight gather level.
    issued_in_level: usize,
    chain_insts: usize,
}

impl Batch {
    fn new(lanes: usize) -> Batch {
        Batch {
            stride_pc: 0,
            lanes,
            pcs: vec![0; lanes],
            xcols: vec![0; Reg::COUNT * lanes],
            fcols: vec![0.0; FReg::COUNT * lanes],
            overlays: (0..lanes).map(|_| StoreOverlay::new()).collect(),
            active: LaneMask::default(),
            done: LaneMask::default(),
            poisoned: LaneMask::default(),
            at_gather: LaneMask::default(),
            taint: [false; RegRef::FLAT_COUNT],
            reg_ready: [0; RegRef::FLAT_COUNT],
            wait_until: 0,
            pending_gather: Vec::with_capacity(lanes),
            gather_cursor: 0,
            gather_dst: None,
            gather_ready_max: 0,
            first_copy_ready: 0,
            issued_in_level: 0,
            chain_insts: 0,
        }
    }

    /// Gather sub-accesses not yet accepted by the memory system.
    fn gather_outstanding(&self) -> bool {
        self.gather_cursor < self.pending_gather.len()
    }
}

#[derive(Clone, Debug)]
struct Scan {
    cursor: Cpu,
    overlay: StoreOverlay,
    remaining: usize,
    dead: bool,
}

/// Which persistent phase sub-struct is live.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PhaseKind {
    Scan,
    Batch,
}

/// The Vector Runahead engine (built once per core by the simulator and
/// re-armed in place at each trigger).
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub struct VectorRunahead {
    termination_slack: Option<u64>,
    vir_pipelining: bool,
    vec_alu: usize,
    width: usize,
    phase: PhaseKind,
    scan: Scan,
    batch: Batch,
    /// Continuation point for repeated batches of the same striding
    /// load: real VR refills the vector issue register from the stride
    /// detector, so batch *n* starts K strides past batch *n−1*
    /// regardless of the (scalar, non-vectorized) induction registers.
    next_base: Option<(u64, u64)>,
    /// Per-tick scratch (DESIGN.md §12/§14): fused-sweep worklists
    /// reused across ticks and episodes.
    scratch_mem: Vec<(usize, u64)>,
    scratch_val: Vec<u64>,
    /// Whether any striding load was vectorized this interval.
    pub found_stride: bool,
    /// Batches completed or started.
    pub batches: u64,
    /// Batches abandoned by bounded delayed termination.
    pub batches_aborted: u64,
    /// Total scalar-equivalent lanes spawned.
    pub lanes_spawned: u64,
    /// Lanes invalidated by divergence or faults.
    pub lanes_invalidated: u64,
}

impl VectorRunahead {
    /// Starts an engine from the committed architectural state,
    /// positioned at the blocking load's PC.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.vr_lanes` exceeds `MAX_LANES` (the simulator
    /// validates this before construction).
    pub fn new(cpu: Cpu, cfg: &RunaheadConfig, width: usize, vec_alu: usize) -> VectorRunahead {
        assert!(cfg.vr_lanes <= MAX_LANES, "vr_lanes {} exceeds {MAX_LANES}", cfg.vr_lanes);
        VectorRunahead {
            termination_slack: cfg.termination_slack,
            vir_pipelining: cfg.vir_pipelining,
            vec_alu: vec_alu.max(1),
            width,
            phase: PhaseKind::Scan,
            scan: Scan {
                cursor: cpu,
                overlay: StoreOverlay::new(),
                remaining: SCAN_BUDGET,
                dead: false,
            },
            batch: Batch::new(cfg.vr_lanes),
            next_base: None,
            scratch_mem: Vec::with_capacity(cfg.vr_lanes),
            scratch_val: Vec::with_capacity(cfg.vr_lanes),
            found_stride: false,
            batches: 0,
            batches_aborted: 0,
            lanes_spawned: 0,
            lanes_invalidated: 0,
        }
    }

    /// Past the barrier, no gather outstanding, not at a batch
    /// boundary: when the next chain instruction is a scalar load whose
    /// operands are ready and the MSHR file is full, the cycle an
    /// entry frees (`step_batch` retries it each cycle until then).
    fn scalar_load_blocked(&self, prog: &Program, ms: &MemorySystem, now: u64) -> Option<u64> {
        let b = &self.batch;
        let lane0 = b.active.first()?;
        let inst = prog.fetch(b.pcs[lane0])?;
        let scalar_load = inst.is_load() && !inst.srcs().any(|s| b.taint[s.flat_index()]);
        let operands_ready = inst.srcs().all(|s| b.reg_ready[s.flat_index()] <= now);
        let free = ms.mshr_free_at(now);
        (scalar_load && operands_ready && free > now).then_some(free)
    }

    /// Lane-mask bookkeeping invariants (checked builds; see
    /// DESIGN.md §14).
    #[cfg_attr(not(any(test, feature = "checked")), allow(dead_code))]
    pub(crate) fn lane_mask_invariants(&self) -> Result<(), String> {
        if self.phase != PhaseKind::Batch {
            return Ok(());
        }
        let b = &self.batch;
        invariant::check_lane_masks(
            b.lanes,
            b.active.words(),
            b.done.words(),
            b.poisoned.words(),
            b.at_gather.words(),
        )
    }

    // ---- scan phase -------------------------------------------------

    fn step_scan(&mut self, ctx: &mut RaCtx<'_>) {
        if self.scan.dead || self.scan.remaining == 0 {
            return; // idle until the interval ends
        }
        for _ in 0..self.width {
            if self.scan.remaining == 0 {
                break;
            }
            self.scan.remaining -= 1;
            let Some(inst) = ctx.prog.fetch(self.scan.cursor.pc()) else {
                self.scan.dead = true;
                break;
            };
            let inst = *inst;
            // A striding load? Vectorize from here.
            if matches!(inst.op, Op::Ld(_) | Op::Fld) {
                if let Some(stride) =
                    ctx.ms.stride_detector().confident_stride(self.scan.cursor.pc())
                {
                    self.start_batch(ctx, inst, stride);
                    return;
                }
            }
            let Scan { cursor, overlay, dead, .. } = &mut self.scan;
            match cursor.step_spec(ctx.prog, ctx.mem, overlay) {
                Ok(step) => {
                    if step.halted {
                        *dead = true;
                        break;
                    }
                }
                Err(_) => {
                    *dead = true;
                    break;
                }
            }
        }
    }

    /// Forks K lanes off the scan state (the scan cursor sits at the
    /// striding load): broadcasts the cursor's register files into the
    /// lane columns, executes the striding load for each lane's future
    /// iteration, and arms the first gather level.
    fn start_batch(&mut self, ctx: &mut RaCtx<'_>, inst: Inst, stride: i64) {
        let cursor = self.scan.cursor;
        let stride_pc = cursor.pc();
        let reg_base = cursor.x(Reg::new(inst.rs1)).wrapping_add(inst.imm as u64);
        let base_addr = match self.next_base {
            Some((pc, addr)) if pc == stride_pc => addr,
            _ => reg_base,
        };
        let width_bytes = inst.mem_width().map_or(8, |w| w.bytes());
        let k = self.batch.lanes;

        self.found_stride = true;
        self.batches += 1;
        self.lanes_spawned += k as u64;
        self.next_base =
            Some((stride_pc, base_addr.wrapping_add((stride as u64).wrapping_mul(k as u64))));

        let batch = &mut self.batch;
        batch.stride_pc = stride_pc;
        batch.taint = [false; RegRef::FLAT_COUNT];
        let dst = inst.dst();
        if let Some(d) = dst {
            batch.taint[d.flat_index()] = true;
        }

        // Broadcast the scan cursor's register files into the columns.
        for r in 0..Reg::COUNT {
            batch.xcols[r * k..(r + 1) * k].fill(cursor.x(Reg::new(r as u8)));
        }
        for r in 0..FReg::COUNT {
            batch.fcols[r * k..(r + 1) * k].fill(cursor.f(FReg::new(r as u8)));
        }

        batch.pending_gather.clear();
        batch.gather_cursor = 0;
        for l in 0..k {
            let addr = base_addr.wrapping_add((stride as u64).wrapping_mul(l as u64 + 1));
            // Execute the striding load manually for this lane's
            // future iteration.
            let value = ctx.mem.read(addr, width_bytes);
            match dst {
                Some(RegRef::Int(r)) if !r.is_zero() => {
                    batch.xcols[r.index() * k + l] = value;
                }
                Some(RegRef::Fp(fr)) => batch.fcols[fr.index() * k + l] = f64::from_bits(value),
                _ => {} // stores to x0 and destination-less loads: no effect
            }
            batch.pcs[l] = stride_pc + 1;
            batch.overlays[l].clear(); // empty delta over the scan overlay
            batch.pending_gather.push((l, addr));
        }
        batch.active = LaneMask::prefix(k);
        batch.done = LaneMask::default();
        batch.poisoned = LaneMask::default();
        batch.at_gather = LaneMask::prefix(k);

        batch.reg_ready = [0u64; RegRef::FLAT_COUNT];
        // Until the striding gather completes, its destination's data
        // is unavailable; the entry is finalized when the last
        // sub-access issues.
        if let Some(d) = dst {
            batch.reg_ready[d.flat_index()] = u64::MAX;
        }
        batch.wait_until = ctx.now + 1;
        batch.gather_dst = dst.map(RegRef::flat_index);
        batch.gather_ready_max = 0;
        batch.first_copy_ready = 0;
        batch.issued_in_level = 0;
        batch.chain_insts = 0;
        self.phase = PhaseKind::Batch;
    }

    // ---- batch phase ------------------------------------------------

    fn step_batch(&mut self, ctx: &mut RaCtx<'_>) {
        if ctx.now < self.batch.wait_until {
            return;
        }
        if !self.batch.gather_outstanding() && self.at_boundary(ctx.prog) {
            // Every lane died, or the lockstep group reached the
            // vector-runahead termination point.
            self.finish_batch();
            return;
        }
        let batch = &mut self.batch;

        // 1. Drain any pending gather sub-accesses, MSHR-limited.
        if batch.gather_outstanding() {
            let mut issued = 0;
            while issued < GATHER_ISSUE_PER_CYCLE {
                let Some(&(lane, addr)) = batch.pending_gather.get(batch.gather_cursor) else {
                    break;
                };
                match ctx.ms.access(
                    addr,
                    Access::Load,
                    Requestor::Runahead,
                    batch.stride_pc,
                    ctx.now,
                ) {
                    Ok(out) => {
                        batch.gather_ready_max = batch.gather_ready_max.max(out.ready_at);
                        if batch.issued_in_level < GATHER_ISSUE_PER_CYCLE {
                            batch.first_copy_ready = batch.first_copy_ready.max(out.ready_at);
                        }
                        batch.issued_in_level += 1;
                        batch.gather_cursor += 1;
                        issued += 1;
                        let _ = lane;
                    }
                    Err(_) => break, // MSHRs full: retry next cycle
                }
            }
            if !batch.gather_outstanding() {
                // Data-ready time of the gather's destination: the
                // slowest lane of the *first vector copy*. The VIR
                // overlaps the 16 vector copies of each chain level
                // ("16 AVX-512 vectors in flight simultaneously"), so
                // later copies pipeline behind the first rather than
                // barriering the whole chain.
                if let Some(d) = batch.gather_dst.take() {
                    batch.reg_ready[d] = if self.vir_pipelining {
                        batch.first_copy_ready
                    } else {
                        batch.gather_ready_max
                    };
                }
                batch.gather_ready_max = 0;
                batch.first_copy_ready = 0;
                batch.pending_gather.clear();
                batch.gather_cursor = 0;
                batch.at_gather = LaneMask::default();
            }
            return;
        }

        // 2. Not at a batch boundary (checked above): lane 0 has a
        // chain instruction.
        let lane0 = batch.active.first().expect("a lane is live");
        let lane0_pc = batch.pcs[lane0];
        let inst = *ctx.prog.fetch(lane0_pc).expect("lane 0 is on the program");

        // 3. Execute one chain instruction across all active lanes.
        let tainted = inst.srcs().any(|s| batch.taint[s.flat_index()]);
        let is_gather_load = inst.is_load() && tainted;
        let is_scalar_load = inst.is_load() && !tainted;

        // Dataflow stall: the instruction reads a register whose
        // (gather) data has not returned yet.
        let operands_ready_at =
            inst.srcs().map(|s| batch.reg_ready[s.flat_index()]).max().unwrap_or(0);
        if operands_ready_at > ctx.now {
            batch.wait_until = operands_ready_at;
            return;
        }

        if is_scalar_load && !ctx.ms.mshr_free(ctx.now) {
            return; // retry next cycle
        }

        // Decode once, step all K lanes as fused column sweeps.
        let exec_mask = batch.active;
        let scalar_load_ready = {
            let VectorRunahead { batch, scan, scratch_mem, scratch_val, lanes_invalidated, .. } =
                self;
            exec_level(
                batch,
                &scan.overlay,
                scratch_mem,
                scratch_val,
                lanes_invalidated,
                ctx,
                inst,
                lane0_pc,
                exec_mask,
                is_gather_load,
                is_scalar_load,
            )
        };

        // Divergence: follow the first live lane's control flow and
        // invalidate every deviating lane (ISCA'21 VR has no
        // reconvergence). Only per-lane control targets (conditional
        // branches and Jalr) can split the lockstep group.
        if matches!(inst.op, Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu | Op::Jalr)
        {
            let batch = &mut self.batch;
            let pc0 = batch.pcs[lane0];
            for l in exec_mask.iter() {
                if batch.pcs[l] != pc0 {
                    batch.active.clear(l);
                    self.lanes_invalidated += 1;
                }
            }
        }
        let batch = &mut self.batch;
        batch.chain_insts += 1;

        // 4. Taint propagation (shared across lanes — lockstep).
        if let Some(d) = inst.dst() {
            batch.taint[d.flat_index()] = tainted;
        }

        // 5. Charge the cost of this chain instruction and record the
        // destination's data-ready time. The surviving-lane count is a
        // single mask AND + popcount.
        let k_active = (exec_mask & batch.active).count().max(1);
        let mut next_free = ctx.now + 1;
        if tainted {
            let vec_uops = k_active.div_ceil(8);
            next_free = ctx.now + (vec_uops.div_ceil(self.vec_alu) as u64).max(1);
        }
        let dst_idx = inst.dst().map(RegRef::flat_index);
        if is_gather_load {
            // `pending_gather` was filled during the fused sweep.
            batch.gather_dst = dst_idx;
            batch.gather_ready_max = 0;
            batch.first_copy_ready = 0;
            batch.issued_in_level = 0;
            if let Some(d) = dst_idx {
                batch.reg_ready[d] = u64::MAX; // finalized at issue drain
            }
            batch.wait_until = next_free;
        } else {
            if let Some(d) = dst_idx {
                batch.reg_ready[d] = match scalar_load_ready {
                    Some(r) => r,
                    None => next_free,
                };
            }
            batch.wait_until = next_free;
        }
    }

    /// Ends the batch: the lockstep group retires whole (one mask OR)
    /// and scanning resumes past it.
    fn finish_batch(&mut self) {
        let VectorRunahead { batch, scan, .. } = self;
        batch.done |= batch.active;
        batch.active = LaneMask::default();
        // Continue scanning from the most advanced surviving lane (it
        // sits at the striding load of a further future iteration), so
        // the next batch covers the iterations after this one.
        match batch.done.last() {
            Some(l) => {
                let k = batch.lanes;
                let mut cpu = Cpu::new();
                cpu.set_pc(batch.pcs[l]);
                for r in 1..Reg::COUNT {
                    cpu.set_x(Reg::new(r as u8), batch.xcols[r * k + l]);
                }
                for r in 0..FReg::COUNT {
                    cpu.set_f(FReg::new(r as u8), batch.fcols[r * k + l]);
                }
                scan.cursor = cpu;
                // The scan overlay already holds the batch's base
                // layer; fold the survivor's delta on top.
                scan.overlay.merge_from(&batch.overlays[l]);
                scan.remaining = self.width * 4;
                scan.dead = false;
            }
            None => {
                // No survivors: go idle for the rest of the interval.
                scan.cursor = Cpu::new();
                scan.overlay.clear();
                scan.remaining = 0;
                scan.dead = true;
            }
        }
        self.phase = PhaseKind::Scan;
    }

    /// Whether the engine is mid-batch (used to account delayed
    /// termination).
    pub fn in_batch(&self) -> bool {
        self.phase == PhaseKind::Batch
    }

    /// Whether the batch's lockstep group is over: every lane died, or
    /// lane 0 is back at the striding load, out of chain budget, or
    /// off the program.
    fn at_boundary(&self, prog: &Program) -> bool {
        let b = &self.batch;
        b.active.first().is_none_or(|lane0| {
            let pc = b.pcs[lane0];
            pc == b.stride_pc || b.chain_insts >= CHAIN_BUDGET || prog.fetch(pc).is_none()
        })
    }
}

impl RunaheadEngine for VectorRunahead {
    /// Re-arms the engine for a new interval without giving back any
    /// capacity (lane columns, overlays, scratch buffers all survive;
    /// see DESIGN.md §12): state-identical to a fresh
    /// [`VectorRunahead::new`]. `base` seeds the first batch of the
    /// eager (decoupled) trigger extension, where the committed
    /// register state lags the triggering load by a full ROB.
    fn reset(&mut self, cpu: Cpu, _blocked_dst: Option<RegRef>, base: Option<(u64, u64)>) {
        self.phase = PhaseKind::Scan;
        self.scan.cursor = cpu;
        self.scan.overlay.clear();
        self.scan.remaining = SCAN_BUDGET;
        self.scan.dead = false;
        self.next_base = base;
        self.found_stride = false;
        self.batches = 0;
        self.batches_aborted = 0;
        self.lanes_spawned = 0;
        self.lanes_invalidated = 0;
        // The batch state is fully re-initialized by `start_batch`;
        // nothing reads it while the phase is Scan.
    }

    /// Runs one cycle; `interval_over` is true once the blocking load
    /// has returned (the engine then finishes the current batch and
    /// reports [`VrStatus::Finished`] — delayed termination). The
    /// cycles that report `Finished` are exactly those
    /// [`Self::finishes`] names.
    fn step_cycle(&mut self, ctx: &mut RaCtx<'_>, interval_over: bool) -> VrStatus {
        #[cfg(feature = "checked")]
        if let Err(e) = self.lane_mask_invariants() {
            panic!("vector lane mask invariant violated: {e}");
        }
        if self.finishes(ctx.prog, ctx.now, interval_over) {
            if self.phase == PhaseKind::Batch {
                if ctx.now < self.batch.wait_until {
                    // Bounded delayed termination (extension, off by
                    // default): chain generation is stalled well into
                    // the future behind a saturated memory system.
                    self.batches_aborted += 1;
                }
                self.finish_batch();
            }
            return VrStatus::Finished;
        }
        match self.phase {
            PhaseKind::Scan => self.step_scan(ctx),
            PhaseKind::Batch => self.step_batch(ctx),
        }
        VrStatus::Working
    }

    /// Whether [`Self::step_cycle`] at `now` reports
    /// [`VrStatus::Finished`] — the one exit predicate, which the
    /// simulator's engine window also reads to stop before that cycle.
    /// Only once the interval is over: while scanning, at a batch
    /// boundary, or (bounded delayed termination) stalled more than
    /// the slack short of the chain's barrier.
    fn finishes(&self, prog: &Program, now: u64, interval_over: bool) -> bool {
        if !interval_over {
            return false;
        }
        match self.phase {
            PhaseKind::Scan => true,
            PhaseKind::Batch => {
                let b = &self.batch;
                if now < b.wait_until {
                    self.termination_slack.is_some_and(|slack| b.wait_until - now > slack)
                } else {
                    !b.gather_outstanding() && self.at_boundary(prog)
                }
            }
        }
    }

    /// The engine's next idle stretch, given the current cycle and the
    /// episode's `end_at`: the first cycle at which it can next do
    /// observable work (step lanes, finish, or have a memory access
    /// accepted). `None` means the engine is (or may be) busy right
    /// now. Used by the simulator's fast-forward to skip dead episode
    /// cycles in bulk; must be conservative but cycle-exact when
    /// `Some`. Past the chain's barrier the engine only idles against
    /// a full MSHR file: retrying a gather sub-access (each cycle one
    /// rejected attempt, [`Idle::retries`]) or waiting to issue a chain
    /// scalar load (no attempt is made).
    fn idle_until(&self, prog: &Program, ms: &MemorySystem, now: u64, end_at: u64) -> Option<Idle> {
        let idle = |until| Idle { until, retries: false };
        match self.phase {
            PhaseKind::Scan => {
                if now >= end_at {
                    return None; // reports Finished this cycle
                }
                if self.scan.dead || self.scan.remaining == 0 {
                    // Idle until the interval ends (then Finished).
                    Some(idle(end_at))
                } else {
                    None // actively scanning
                }
            }
            PhaseKind::Batch => {
                let b = &self.batch;
                if now >= b.wait_until {
                    if b.gather_outstanding() {
                        let (_, addr) = b.pending_gather[b.gather_cursor];
                        let until = ms.load_rejected_until(addr, Requestor::Runahead, now)?;
                        return Some(Idle { until, retries: true });
                    }
                    if self.at_boundary(prog) {
                        return None; // the batch ends this cycle
                    }
                    return self.scalar_load_blocked(prog, ms, now).map(idle);
                }
                let w = b.wait_until;
                match self.termination_slack {
                    // No bounded termination: nothing observable can
                    // happen before the barrier.
                    None => Some(idle(w)),
                    Some(slack) => {
                        if w <= end_at {
                            // `interval_over` stays false for every
                            // cycle before the barrier: no abort.
                            Some(idle(w))
                        } else {
                            // The abort predicate `w - t > slack` can
                            // only hold at the first interval-over
                            // cycle (the gap shrinks as t grows).
                            let first = now.max(end_at);
                            if w - first > slack {
                                (first > now).then_some(idle(first))
                            } else {
                                Some(idle(w))
                            }
                        }
                    }
                }
            }
        }
    }

    /// Invalidates each still-active lane of the current batch with
    /// probability `frac` (counted in `lanes_invalidated`); a no-op
    /// outside a batch. Because lanes only generate prefetches,
    /// poisoning them is architecturally invisible — the differential
    /// oracle checks exactly that. The per-lane draws build a doom
    /// mask; the kill itself is a single mask AND-NOT.
    fn poison_lanes(&mut self, rng: &mut SplitMix64, frac: f64) -> u64 {
        if self.phase != PhaseKind::Batch {
            return 0;
        }
        let batch = &mut self.batch;
        let mut doom = LaneMask::default();
        for l in batch.active.iter() {
            if rng.chance(frac) {
                doom.set(l);
            }
        }
        batch.active &= !doom;
        batch.poisoned |= doom;
        let n = doom.count() as u64;
        self.lanes_invalidated += n;
        n
    }

    fn counters(&self) -> EpisodeCounters {
        EpisodeCounters {
            insts: 0,
            no_stride: !self.found_stride,
            batches: self.batches,
            batches_aborted: self.batches_aborted,
            lanes_spawned: self.lanes_spawned,
            lanes_invalidated: self.lanes_invalidated,
        }
    }

    fn invariants(&self) -> Result<(), String> {
        self.lane_mask_invariants()
    }

    fn buffer_caps(&self) -> Option<(usize, usize, usize)> {
        Some((self.batch.pending_gather.capacity(), self.scratch_mem.capacity(), self.batch.lanes))
    }
}

/// Executes one decoded chain instruction across every lane of `exec`
/// as fused column sweeps (the op match is hoisted out of the lane
/// loops). Loads run as three passes — all K addresses, all K layered
/// overlay lookups, then the K register writes / gather pushes —
/// before the memory system is touched. Returns the shared scalar-load
/// ready time, if any.
#[allow(clippy::too_many_arguments)]
fn exec_level(
    batch: &mut Batch,
    base: &StoreOverlay,
    scratch_mem: &mut Vec<(usize, u64)>,
    scratch_val: &mut Vec<u64>,
    lanes_invalidated: &mut u64,
    ctx: &mut RaCtx<'_>,
    inst: Inst,
    pc0: u64,
    exec: LaneMask,
    is_gather_load: bool,
    is_scalar_load: bool,
) -> Option<u64> {
    let Batch { lanes, pcs, xcols, fcols, overlays, active, pending_gather, at_gather, .. } = batch;
    let k = *lanes;
    let x = xcols.as_mut_slice();
    let f = fcols.as_mut_slice();
    let pcs = pcs.as_mut_slice();
    // Hoisted bounds facts: every column index below is `col·k + l`
    // with `l < k`, so one check per column lets the per-lane loops
    // compile without bound checks (and auto-vectorize).
    assert!(pcs.len() >= k);
    assert!(x.len() >= (inst.rs1 as usize + 1) * k);
    assert!(x.len() >= (inst.rs2 as usize + 1) * k);
    assert!(x.len() >= (inst.rd as usize + 1) * k);
    assert!(f.len() >= (inst.rs1 as usize + 1) * k);
    assert!(f.len() >= (inst.rs2 as usize + 1) * k);
    assert!(f.len() >= (inst.rd as usize + 1) * k);
    let imm = inst.imm;
    let wr = inst.rd != 0;
    let c1 = inst.rs1 as usize * k;
    let c2 = inst.rs2 as usize * k;
    let cd = inst.rd as usize * k;
    let fall = pc0.wrapping_add(1);

    if matches!(inst.op, Op::Halt) {
        // The lockstep group halts together; every lane is invalidated
        // (a halted lane never survives a batch).
        *lanes_invalidated += exec.count() as u64;
        *active &= !exec;
        return None;
    }

    // Default next PC for every stepped lane; control ops overwrite.
    for_each_lane(exec, k, |l| pcs[l] = fall);

    // Branchless K-wide column kernels, semantics lifted verbatim from
    // `Cpu::exec` (the differential tests pin the equivalence).
    macro_rules! rr {
        (|$a:ident, $b:ident| $e:expr) => {
            if wr {
                for_each_lane(exec, k, |l| {
                    let $a = x[c1 + l];
                    let $b = x[c2 + l];
                    x[cd + l] = $e;
                })
            }
        };
    }
    macro_rules! ri {
        (|$a:ident| $e:expr) => {
            if wr {
                for_each_lane(exec, k, |l| {
                    let $a = x[c1 + l];
                    x[cd + l] = $e;
                })
            }
        };
    }
    macro_rules! frr {
        (|$a:ident, $b:ident| $e:expr) => {
            for_each_lane(exec, k, |l| {
                let $a = f[c1 + l];
                let $b = f[c2 + l];
                f[cd + l] = $e;
            })
        };
    }
    macro_rules! branch {
        (|$a:ident, $b:ident| $t:expr) => {{
            let tt = imm as u64;
            for_each_lane(exec, k, |l| {
                let $a = x[c1 + l];
                let $b = x[c2 + l];
                if $t {
                    pcs[l] = tt;
                }
            })
        }};
    }

    let mut scalar_load_ready: Option<u64> = None;
    use Op::*;
    match inst.op {
        Nop | Halt => {}
        Add => rr!(|a, b| a.wrapping_add(b)),
        Sub => rr!(|a, b| a.wrapping_sub(b)),
        Mul => rr!(|a, b| a.wrapping_mul(b)),
        Divu => rr!(|a, b| a.checked_div(b).unwrap_or(u64::MAX)),
        Remu => rr!(|a, b| if b == 0 { a } else { a % b }),
        And => rr!(|a, b| a & b),
        Or => rr!(|a, b| a | b),
        Xor => rr!(|a, b| a ^ b),
        Sll => rr!(|a, b| a.wrapping_shl(b as u32 & 63)),
        Srl => rr!(|a, b| a.wrapping_shr(b as u32 & 63)),
        Sra => rr!(|a, b| ((a as i64).wrapping_shr(b as u32 & 63)) as u64),
        Slt => rr!(|a, b| u64::from((a as i64) < (b as i64))),
        Sltu => rr!(|a, b| u64::from(a < b)),
        Min => rr!(|a, b| (a as i64).min(b as i64) as u64),
        Minu => rr!(|a, b| a.min(b)),
        Addi => ri!(|a| a.wrapping_add(imm as u64)),
        Andi => ri!(|a| a & imm as u64),
        Ori => ri!(|a| a | imm as u64),
        Xori => ri!(|a| a ^ imm as u64),
        Slli => ri!(|a| a.wrapping_shl(imm as u32 & 63)),
        Srli => ri!(|a| a.wrapping_shr(imm as u32 & 63)),
        Srai => ri!(|a| ((a as i64).wrapping_shr(imm as u32 & 63)) as u64),
        Slti => ri!(|a| u64::from((a as i64) < imm)),
        Sltiu => ri!(|a| u64::from(a < imm as u64)),
        Li => {
            if wr {
                for_each_lane(exec, k, |l| x[cd + l] = imm as u64);
            }
        }
        Ld(w) => {
            let size = w.bytes();
            // Pass 1: all K effective addresses.
            scratch_mem.clear();
            for_each_lane(exec, k, |l| scratch_mem.push((l, x[c1 + l].wrapping_add(imm as u64))));
            // Pass 2: all K layered overlay lookups (delta → scan base
            // → memory), no memory-system interaction yet.
            scratch_val.clear();
            for &(l, a) in scratch_mem.iter() {
                scratch_val.push(overlays[l].load_layered(base, ctx.mem, a, size));
            }
            // Pass 3: register writes, then the memory system.
            for (&(l, a), &v) in scratch_mem.iter().zip(scratch_val.iter()) {
                if wr {
                    x[cd + l] = v;
                }
                if is_gather_load {
                    // The gather buffer was fully consumed and cleared
                    // when the previous level drained.
                    pending_gather.push((l, a));
                    at_gather.set(l);
                }
            }
            if is_scalar_load {
                // One shared access for the whole vector: the first
                // lane whose request the memory system accepts.
                for &(_, a) in scratch_mem.iter() {
                    if let Ok(out) =
                        ctx.ms.access(a, Access::Load, Requestor::Runahead, pc0, ctx.now)
                    {
                        scalar_load_ready = Some(out.ready_at);
                        break;
                    }
                }
            }
        }
        Fld => {
            scratch_mem.clear();
            for_each_lane(exec, k, |l| scratch_mem.push((l, x[c1 + l].wrapping_add(imm as u64))));
            scratch_val.clear();
            for &(l, a) in scratch_mem.iter() {
                scratch_val.push(overlays[l].load_layered(base, ctx.mem, a, 8));
            }
            for (&(l, a), &v) in scratch_mem.iter().zip(scratch_val.iter()) {
                f[cd + l] = f64::from_bits(v);
                if is_gather_load {
                    pending_gather.push((l, a));
                    at_gather.set(l);
                }
            }
            if is_scalar_load {
                for &(_, a) in scratch_mem.iter() {
                    if let Ok(out) =
                        ctx.ms.access(a, Access::Load, Requestor::Runahead, pc0, ctx.now)
                    {
                        scalar_load_ready = Some(out.ready_at);
                        break;
                    }
                }
            }
        }
        St(w) => {
            let m = st_mask(w);
            let size = w.bytes();
            for_each_lane(exec, k, |l| {
                let a = x[c1 + l].wrapping_add(imm as u64);
                overlays[l].store(a, size, x[c2 + l] & m);
            });
        }
        Fst => {
            for_each_lane(exec, k, |l| {
                let a = x[c1 + l].wrapping_add(imm as u64);
                overlays[l].store(a, 8, f[c2 + l].to_bits());
            });
        }
        Fadd => frr!(|a, b| a + b),
        Fsub => frr!(|a, b| a - b),
        Fmul => frr!(|a, b| a * b),
        Fdiv => frr!(|a, b| a / b),
        Fcvt => for_each_lane(exec, k, |l| f[cd + l] = x[c1 + l] as f64),
        Fcvti => {
            if wr {
                for_each_lane(exec, k, |l| x[cd + l] = f[c1 + l] as u64);
            }
        }
        Flt => {
            if wr {
                for_each_lane(exec, k, |l| x[cd + l] = u64::from(f[c1 + l] < f[c2 + l]));
            }
        }
        Feq => {
            if wr {
                for_each_lane(exec, k, |l| x[cd + l] = u64::from(f[c1 + l] == f[c2 + l]));
            }
        }
        Beq => branch!(|a, b| a == b),
        Bne => branch!(|a, b| a != b),
        Blt => branch!(|a, b| (a as i64) < (b as i64)),
        Bge => branch!(|a, b| (a as i64) >= (b as i64)),
        Bltu => branch!(|a, b| a < b),
        Bgeu => branch!(|a, b| a >= b),
        Jal => {
            let tt = imm as u64;
            for_each_lane(exec, k, |l| {
                if wr {
                    x[cd + l] = fall;
                }
                pcs[l] = tt;
            });
        }
        Jalr => {
            for_each_lane(exec, k, |l| {
                let target = x[c1 + l].wrapping_add(imm as u64);
                if wr {
                    x[cd + l] = fall;
                }
                pcs[l] = target;
            });
        }
    }
    scalar_load_ready
}

fn st_mask(w: Width) -> u64 {
    match w {
        Width::B => 0xff,
        Width::H => 0xffff,
        Width::W => 0xffff_ffff,
        Width::D => u64::MAX,
    }
}

/// Itemized storage cost of the Vector Runahead hardware additions, in
/// bits, following the paper family's "Hardware Overhead" accounting.
/// `lanes` is the vectorization degree K (mask widths scale with it).
pub fn hardware_overhead_bits(lanes: usize) -> Vec<(&'static str, u64)> {
    let lanes = lanes as u64;
    // VR reads the L1-D stride prefetcher's table rather than keeping
    // its own, so it is charged for the table Table 1 builds.
    let (streams, _, _) = MemConfig::table1().stride_params;
    vec![
        (
            "stride detector (16 entries, shared with the L1-D prefetcher)",
            StrideDetector::new(streams).storage_bits(),
        ),
        // Vector register allocation table: 16 architectural entries ×
        // 16 physical register ids × 9 bits.
        ("vector register allocation table", 16 * 16 * 9),
        // Vector issue register: K-bit mask + issued/executed bits per
        // vector uop (K/8) + 64b uop/imm + 9b dst + 2×10b src per uop.
        ("vector issue register", lanes + 2 * (lanes / 8) + 64 + (9 + 20) * 16),
        // Front-end buffer: 8 decoded micro-ops × 64 bits.
        ("front-end micro-op buffer", 8 * 64),
        // Taint tracker: one bit per architectural integer register.
        ("taint tracker", 16),
        // Final-load register (48-bit PC).
        ("final-load register", 48),
    ]
}

/// Total overhead in bytes (rounded up).
pub fn hardware_overhead_bytes(lanes: usize) -> u64 {
    let bits: u64 = hardware_overhead_bits(lanes).iter().map(|(_, b)| *b).sum();
    bits.div_ceil(8)
}

/// The pre-SoA scalar-lane engine, preserved verbatim as the
/// differential reference model: the SWAR path must be observably
/// indistinguishable from it (same counters, same memory-system
/// traffic in the same order, same surviving scan state).
#[cfg(test)]
#[allow(dead_code)]
pub(crate) mod reference {
    use super::{CHAIN_BUDGET, GATHER_ISSUE_PER_CYCLE, SCAN_BUDGET};
    use crate::config::RunaheadConfig;
    use crate::runahead::{EpisodeCounters, Idle, RaCtx, RunaheadEngine, VrStatus};
    use vr_isa::{Cpu, Op, Program, Reg, RegRef, SplitMix64, StoreOverlay};
    use vr_mem::{Access, MemorySystem, Requestor};

    #[derive(Clone, Debug)]
    struct Lane {
        cpu: Cpu,
        overlay: StoreOverlay,
        active: bool,
        done: bool,
    }

    impl Lane {
        fn fresh() -> Lane {
            Lane { cpu: Cpu::new(), overlay: StoreOverlay::new(), active: false, done: false }
        }
    }

    #[derive(Clone, Debug)]
    struct Batch {
        stride_pc: u64,
        lanes: Vec<Lane>,
        k: usize,
        taint: [bool; RegRef::FLAT_COUNT],
        reg_ready: [u64; RegRef::FLAT_COUNT],
        wait_until: u64,
        pending_gather: Vec<(usize, u64)>,
        gather_cursor: usize,
        gather_dst: Option<usize>,
        gather_ready_max: u64,
        first_copy_ready: u64,
        issued_in_level: usize,
        chain_insts: usize,
    }

    impl Batch {
        fn idle() -> Batch {
            Batch {
                stride_pc: 0,
                lanes: Vec::new(),
                k: 0,
                taint: [false; RegRef::FLAT_COUNT],
                reg_ready: [0; RegRef::FLAT_COUNT],
                wait_until: 0,
                pending_gather: Vec::new(),
                gather_cursor: 0,
                gather_dst: None,
                gather_ready_max: 0,
                first_copy_ready: 0,
                issued_in_level: 0,
                chain_insts: 0,
            }
        }

        fn gather_outstanding(&self) -> bool {
            self.gather_cursor < self.pending_gather.len()
        }
    }

    #[derive(Clone, Debug)]
    struct Scan {
        cursor: Cpu,
        overlay: StoreOverlay,
        remaining: usize,
        dead: bool,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum PhaseKind {
        Scan,
        Batch,
    }

    /// The old array-of-structs Vector Runahead engine.
    #[derive(Debug)]
    pub(crate) struct ReferenceVectorRunahead {
        lanes: usize,
        termination_slack: Option<u64>,
        vir_pipelining: bool,
        vec_alu: usize,
        width: usize,
        phase: PhaseKind,
        scan: Scan,
        batch: Batch,
        next_base: Option<(u64, u64)>,
        scratch_active: Vec<usize>,
        scratch_stepped: Vec<(usize, u64)>,
        pub found_stride: bool,
        pub batches: u64,
        pub batches_aborted: u64,
        pub lanes_spawned: u64,
        pub lanes_invalidated: u64,
    }

    impl ReferenceVectorRunahead {
        pub fn new(
            cpu: Cpu,
            cfg: &RunaheadConfig,
            width: usize,
            vec_alu: usize,
        ) -> ReferenceVectorRunahead {
            ReferenceVectorRunahead {
                lanes: cfg.vr_lanes,
                termination_slack: cfg.termination_slack,
                vir_pipelining: cfg.vir_pipelining,
                vec_alu: vec_alu.max(1),
                width,
                phase: PhaseKind::Scan,
                scan: Scan {
                    cursor: cpu,
                    overlay: StoreOverlay::new(),
                    remaining: SCAN_BUDGET,
                    dead: false,
                },
                batch: Batch::idle(),
                next_base: None,
                scratch_active: Vec::new(),
                scratch_stepped: Vec::new(),
                found_stride: false,
                batches: 0,
                batches_aborted: 0,
                lanes_spawned: 0,
                lanes_invalidated: 0,
            }
        }

        fn step_scan(&mut self, ctx: &mut RaCtx<'_>, interval_over: bool) -> VrStatus {
            if interval_over {
                return VrStatus::Finished;
            }
            if self.scan.dead || self.scan.remaining == 0 {
                return VrStatus::Working;
            }
            for _ in 0..self.width {
                if self.scan.remaining == 0 {
                    break;
                }
                self.scan.remaining -= 1;
                let Some(inst) = ctx.prog.fetch(self.scan.cursor.pc()) else {
                    self.scan.dead = true;
                    break;
                };
                let inst = *inst;
                if matches!(inst.op, Op::Ld(_) | Op::Fld) {
                    if let Some(stride) =
                        ctx.ms.stride_detector().confident_stride(self.scan.cursor.pc())
                    {
                        self.start_batch(ctx, inst, stride);
                        return VrStatus::Working;
                    }
                }
                let Scan { cursor, overlay, dead, .. } = &mut self.scan;
                match cursor.step_spec(ctx.prog, ctx.mem, overlay) {
                    Ok(step) => {
                        if step.halted {
                            *dead = true;
                            break;
                        }
                    }
                    Err(_) => {
                        *dead = true;
                        break;
                    }
                }
            }
            VrStatus::Working
        }

        fn start_batch(&mut self, ctx: &mut RaCtx<'_>, inst: vr_isa::Inst, stride: i64) {
            let cursor = self.scan.cursor;
            let stride_pc = cursor.pc();
            let reg_base = cursor.x(Reg::new(inst.rs1)).wrapping_add(inst.imm as u64);
            let base_addr = match self.next_base {
                Some((pc, addr)) if pc == stride_pc => addr,
                _ => reg_base,
            };
            let width_bytes = inst.mem_width().map_or(8, |w| w.bytes());
            let k = self.lanes;

            self.found_stride = true;
            self.batches += 1;
            self.lanes_spawned += k as u64;
            self.next_base =
                Some((stride_pc, base_addr.wrapping_add((stride as u64).wrapping_mul(k as u64))));

            let batch = &mut self.batch;
            batch.stride_pc = stride_pc;
            batch.k = k;
            batch.taint = [false; RegRef::FLAT_COUNT];
            let dst = inst.dst();
            if let Some(d) = dst {
                batch.taint[d.flat_index()] = true;
            }

            while batch.lanes.len() < k {
                batch.lanes.push(Lane::fresh());
            }
            batch.pending_gather.clear();
            batch.gather_cursor = 0;
            for (l, lane) in batch.lanes.iter_mut().enumerate().take(k) {
                let mut cpu = cursor;
                let addr = base_addr.wrapping_add((stride as u64).wrapping_mul(l as u64 + 1));
                let value = ctx.mem.read(addr, width_bytes);
                match dst {
                    Some(RegRef::Int(r)) => cpu.set_x(r, value),
                    Some(RegRef::Fp(f)) => cpu.set_f(f, f64::from_bits(value)),
                    None => {}
                }
                cpu.set_pc(stride_pc + 1);
                lane.cpu = cpu;
                lane.overlay.copy_from(&self.scan.overlay);
                lane.active = true;
                lane.done = false;
                batch.pending_gather.push((l, addr));
            }

            batch.reg_ready = [0u64; RegRef::FLAT_COUNT];
            if let Some(d) = dst {
                batch.reg_ready[d.flat_index()] = u64::MAX;
            }
            batch.wait_until = ctx.now + 1;
            batch.gather_dst = dst.map(RegRef::flat_index);
            batch.gather_ready_max = 0;
            batch.first_copy_ready = 0;
            batch.issued_in_level = 0;
            batch.chain_insts = 0;
            self.phase = PhaseKind::Batch;
        }

        fn step_batch(&mut self, ctx: &mut RaCtx<'_>, interval_over: bool) -> VrStatus {
            let batch = &mut self.batch;

            if ctx.now < batch.wait_until {
                if let Some(slack) = self.termination_slack {
                    if interval_over && batch.wait_until - ctx.now > slack {
                        self.batches_aborted += 1;
                        return self.finish_batch(interval_over);
                    }
                }
                return VrStatus::Working;
            }

            if batch.gather_outstanding() {
                let mut issued = 0;
                while issued < GATHER_ISSUE_PER_CYCLE {
                    let Some(&(lane, addr)) = batch.pending_gather.get(batch.gather_cursor) else {
                        break;
                    };
                    match ctx.ms.access(
                        addr,
                        Access::Load,
                        Requestor::Runahead,
                        batch.stride_pc,
                        ctx.now,
                    ) {
                        Ok(out) => {
                            batch.gather_ready_max = batch.gather_ready_max.max(out.ready_at);
                            if batch.issued_in_level < GATHER_ISSUE_PER_CYCLE {
                                batch.first_copy_ready = batch.first_copy_ready.max(out.ready_at);
                            }
                            batch.issued_in_level += 1;
                            batch.gather_cursor += 1;
                            issued += 1;
                            let _ = lane;
                        }
                        Err(_) => break,
                    }
                }
                if !batch.gather_outstanding() {
                    if let Some(d) = batch.gather_dst.take() {
                        batch.reg_ready[d] = if self.vir_pipelining {
                            batch.first_copy_ready
                        } else {
                            batch.gather_ready_max
                        };
                    }
                    batch.gather_ready_max = 0;
                    batch.first_copy_ready = 0;
                    batch.pending_gather.clear();
                    batch.gather_cursor = 0;
                }
                return VrStatus::Working;
            }

            let Some(lane0) = batch.lanes[..batch.k].iter().find(|l| l.active) else {
                return self.finish_batch(interval_over);
            };
            let lane0_pc = lane0.cpu.pc();
            let group_terminated = lane0_pc == batch.stride_pc
                || batch.chain_insts >= CHAIN_BUDGET
                || ctx.prog.fetch(lane0_pc).is_none();
            if group_terminated {
                for lane in batch.lanes[..batch.k].iter_mut().filter(|l| l.active) {
                    lane.active = false;
                    lane.done = true;
                }
                return self.finish_batch(interval_over);
            }
            let inst = *ctx.prog.fetch(lane0_pc).expect("checked above");

            let tainted = inst.srcs().any(|s| batch.taint[s.flat_index()]);
            let is_gather_load = inst.is_load() && tainted;
            let is_scalar_load = inst.is_load() && !tainted;

            let operands_ready_at =
                inst.srcs().map(|s| batch.reg_ready[s.flat_index()]).max().unwrap_or(0);
            if operands_ready_at > ctx.now {
                batch.wait_until = operands_ready_at;
                return VrStatus::Working;
            }

            if is_scalar_load && !ctx.ms.mshr_free(ctx.now) {
                return VrStatus::Working;
            }

            let mut scalar_load_ready: Option<u64> = None;
            {
                let ReferenceVectorRunahead {
                    batch,
                    scratch_active,
                    scratch_stepped,
                    lanes_invalidated,
                    ..
                } = self;
                scratch_active.clear();
                scratch_active.extend((0..batch.k).filter(|&i| batch.lanes[i].active));

                scratch_stepped.clear();
                for &i in scratch_active.iter() {
                    let lane = &mut batch.lanes[i];
                    let step = match lane.cpu.step_spec(ctx.prog, ctx.mem, &mut lane.overlay) {
                        Ok(s) => s,
                        Err(_) => {
                            lane.active = false;
                            *lanes_invalidated += 1;
                            continue;
                        }
                    };
                    if step.halted {
                        lane.active = false;
                        *lanes_invalidated += 1;
                        continue;
                    }
                    if let Some(me) = step.mem {
                        if !me.is_store {
                            if is_gather_load {
                                batch.pending_gather.push((i, me.addr));
                            } else if is_scalar_load && scalar_load_ready.is_none() {
                                if let Ok(out) = ctx.ms.access(
                                    me.addr,
                                    Access::Load,
                                    Requestor::Runahead,
                                    step.pc,
                                    ctx.now,
                                ) {
                                    scalar_load_ready = Some(out.ready_at);
                                }
                            }
                        }
                    }
                    scratch_stepped.push((i, lane.cpu.pc()));
                }
            }
            if let Some(&(_, pc0)) = self.scratch_stepped.first() {
                for &(i, pc) in &self.scratch_stepped[1..] {
                    if pc != pc0 {
                        self.batch.lanes[i].active = false;
                        self.lanes_invalidated += 1;
                    }
                }
            }
            let batch = &mut self.batch;
            batch.chain_insts += 1;

            if let Some(d) = inst.dst() {
                batch.taint[d.flat_index()] = tainted;
            }

            self.scratch_active.retain(|&i| batch.lanes[i].active);
            let k_active = self.scratch_active.len().max(1);
            let mut next_free = ctx.now + 1;
            if tainted {
                let vec_uops = k_active.div_ceil(8);
                next_free = ctx.now + (vec_uops.div_ceil(self.vec_alu) as u64).max(1);
            }
            let dst_idx = inst.dst().map(RegRef::flat_index);
            if is_gather_load {
                batch.gather_dst = dst_idx;
                batch.gather_ready_max = 0;
                batch.first_copy_ready = 0;
                batch.issued_in_level = 0;
                if let Some(d) = dst_idx {
                    batch.reg_ready[d] = u64::MAX;
                }
                batch.wait_until = next_free;
            } else {
                if let Some(d) = dst_idx {
                    batch.reg_ready[d] = match scalar_load_ready {
                        Some(r) => r,
                        None => next_free,
                    };
                }
                batch.wait_until = next_free;
            }
            VrStatus::Working
        }

        fn finish_batch(&mut self, interval_over: bool) -> VrStatus {
            let ReferenceVectorRunahead { batch, scan, .. } = self;
            match batch.lanes[..batch.k].iter().rev().find(|l| l.active || l.done) {
                Some(lane) => {
                    scan.cursor = lane.cpu;
                    scan.overlay.copy_from(&lane.overlay);
                    scan.remaining = self.width * 4;
                    scan.dead = false;
                }
                None => {
                    scan.cursor = Cpu::new();
                    scan.overlay.clear();
                    scan.remaining = 0;
                    scan.dead = true;
                }
            }
            self.phase = PhaseKind::Scan;
            if interval_over {
                VrStatus::Finished
            } else {
                VrStatus::Working
            }
        }

        pub fn in_batch(&self) -> bool {
            self.phase == PhaseKind::Batch
        }
    }

    /// The reference engine is never skipped: `finishes` and
    /// `idle_until` give the conservative answers, so the simulator
    /// runs every one of its cycles as a full tick.
    impl RunaheadEngine for ReferenceVectorRunahead {
        fn reset(&mut self, cpu: Cpu, _blocked_dst: Option<RegRef>, base: Option<(u64, u64)>) {
            self.phase = PhaseKind::Scan;
            self.scan.cursor = cpu;
            self.scan.overlay.clear();
            self.scan.remaining = SCAN_BUDGET;
            self.scan.dead = false;
            self.next_base = base;
            self.found_stride = false;
            self.batches = 0;
            self.batches_aborted = 0;
            self.lanes_spawned = 0;
            self.lanes_invalidated = 0;
        }

        fn step_cycle(&mut self, ctx: &mut RaCtx<'_>, interval_over: bool) -> VrStatus {
            match self.phase {
                PhaseKind::Scan => self.step_scan(ctx, interval_over),
                PhaseKind::Batch => self.step_batch(ctx, interval_over),
            }
        }

        fn finishes(&self, _prog: &Program, _now: u64, _interval_over: bool) -> bool {
            true
        }

        fn idle_until(&self, _: &Program, _: &MemorySystem, _: u64, _: u64) -> Option<Idle> {
            None
        }

        fn poison_lanes(&mut self, rng: &mut SplitMix64, frac: f64) -> u64 {
            if self.phase != PhaseKind::Batch {
                return 0;
            }
            let batch = &mut self.batch;
            let mut n = 0;
            for lane in batch.lanes[..batch.k].iter_mut() {
                if lane.active && !lane.done && rng.chance(frac) {
                    lane.active = false;
                    n += 1;
                }
            }
            self.lanes_invalidated += n;
            n
        }

        fn counters(&self) -> EpisodeCounters {
            EpisodeCounters {
                insts: 0,
                no_stride: !self.found_stride,
                batches: self.batches,
                batches_aborted: self.batches_aborted,
                lanes_spawned: self.lanes_spawned,
                lanes_invalidated: self.lanes_invalidated,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceVectorRunahead;
    use super::*;
    use crate::runahead::ScalarRunahead;
    use vr_isa::{Asm, Memory, Program};
    use vr_mem::{MemConfig, MemorySystem};

    /// Builds `for i { t = A[i]; u = B[t*8]; }` and a warm stride
    /// detector for A's load PC.
    fn indirect_setup() -> (Program, Memory, MemorySystem, Cpu, u64) {
        indirect_setup_on(MemConfig::table1())
    }

    fn indirect_setup_on(mem_cfg: MemConfig) -> (Program, Memory, MemorySystem, Cpu, u64) {
        let mut a = Asm::new();
        // x10=&A, x11=&B, x5=i(bytes), x6=end
        let loop_top = a.here();
        a.add(Reg::T2, Reg::A0, Reg::T0); // 0: &A[i]
        let stride_pc = a.pos();
        a.ld(Reg::T3, Reg::T2, 0); // 1: t = A[i]      ← striding load
        a.slli(Reg::T4, Reg::T3, 3); // 2
        a.add(Reg::T4, Reg::T4, Reg::A1); // 3
        a.ld(Reg::T5, Reg::T4, 0); // 4: u = B[t]      ← dependent load
        a.addi(Reg::T0, Reg::T0, 8); // 5
        a.blt(Reg::T0, Reg::T1, loop_top); // 6
        a.halt();
        let prog = a.assemble();

        let mut mem = Memory::new();
        for i in 0..256u64 {
            mem.write_u64(0x10000 + i * 8, (i * 37) % 256); // A
        }
        let mut ms = MemorySystem::new(mem_cfg);
        // Warm the stride detector on A's PC.
        for i in 0..4u64 {
            let _ = ms.stride_detector();
            // train via train_prefetchers (stride detector trains even
            // with the prefetcher disabled in this config).
            ms.train_prefetchers(stride_pc, 0x10000 + i * 8, 0, i, |_| 0);
        }
        let mut cpu = Cpu::new();
        cpu.set_x(Reg::A0, 0x10000);
        cpu.set_x(Reg::A1, 0x20000);
        cpu.set_x(Reg::T0, 4 * 8); // i = 4 (stride detector trained up to 3)
        cpu.set_x(Reg::T1, 256 * 8);
        (prog, mem, ms, cpu, stride_pc)
    }

    fn run_engine(
        vr: &mut VectorRunahead,
        prog: &Program,
        mem: &Memory,
        ms: &mut MemorySystem,
        cycles: u64,
    ) -> u64 {
        let mut now = 0;
        while now < cycles {
            let mut ctx = RaCtx { prog, mem, ms, now };
            vr.step_cycle(&mut ctx, false);
            now += 1;
        }
        now
    }

    #[test]
    fn vectorizes_both_levels_of_an_indirect_chain() {
        let (prog, mem, mut ms, cpu, _) = indirect_setup();
        let cfg = RunaheadConfig { vr_lanes: 16, ..RunaheadConfig::vector() };
        let mut vr = VectorRunahead::new(cpu, &cfg, 5, 3);
        run_engine(&mut vr, &prog, &mem, &mut ms, 2000);

        assert!(vr.found_stride, "must find the striding load");
        assert!(vr.batches >= 1);
        assert_eq!(vr.lanes_spawned % 16, 0);
        // The dependent level B[A[i]] must have been prefetched: check
        // a future B address is resident or fetched. With i=4 and 16
        // lanes, lanes cover A[5..21] ⇒ B[(i·37)%256] for those i.
        let covered = (5..21u64)
            .filter(|i| {
                let b_addr = 0x20000 + ((i * 37) % 256) * 8;
                ms.in_l1(b_addr)
            })
            .count();
        assert!(covered >= 12, "only {covered}/16 dependent lines prefetched");
    }

    #[test]
    fn reset_matches_a_fresh_engine() {
        // An engine re-armed for a new interval must behave exactly
        // like a newly constructed one (DESIGN.md §12).
        let (prog, mem, mut ms, cpu, _) = indirect_setup();
        let cfg = RunaheadConfig { vr_lanes: 16, ..RunaheadConfig::vector() };

        let mut fresh = VectorRunahead::new(cpu, &cfg, 5, 3);
        run_engine(&mut fresh, &prog, &mem, &mut ms, 2000);

        // Dirty an engine on a first interval, then reset and replay
        // the same interval against an identically warmed hierarchy.
        let (_, _, mut ms2, _, stride_pc) = indirect_setup();
        let mut pooled = VectorRunahead::new(cpu, &cfg, 5, 3);
        run_engine(&mut pooled, &prog, &mem, &mut ms2, 500);
        let (_, _, mut ms3, _, _) = indirect_setup();
        let _ = stride_pc;
        pooled.reset(cpu, None, None);
        run_engine(&mut pooled, &prog, &mem, &mut ms3, 2000);

        assert_eq!(pooled.found_stride, fresh.found_stride);
        assert_eq!(pooled.batches, fresh.batches);
        assert_eq!(pooled.lanes_spawned, fresh.lanes_spawned);
        assert_eq!(pooled.lanes_invalidated, fresh.lanes_invalidated);
        assert_eq!(pooled.batches_aborted, fresh.batches_aborted);
    }

    /// Runs `eng` up to its finishing cycle (the interval ends at
    /// `end_at`), jumping every idle stretch it reports and checking
    /// each against a clone stepped cycle by cycle: same engine state,
    /// same memory statistics once the booked gather retries are added.
    /// Returns the stretches jumped and how many booked retries.
    fn check_idle_stretches<E: RunaheadEngine + Clone + std::fmt::Debug>(
        eng: &mut E,
        prog: &Program,
        mem: &Memory,
        ms: &mut MemorySystem,
        end_at: u64,
    ) -> (u64, u64) {
        let (mut now, mut jumps, mut retries) = (0, 0, 0);
        while !eng.finishes(prog, now, now >= end_at) {
            match eng.idle_until(prog, ms, now, end_at) {
                Some(idle) if idle.until > now => {
                    let (mut stepped, mut stepped_ms) = (eng.clone(), ms.clone());
                    for t in now..idle.until {
                        let mut ctx = RaCtx { prog, mem, ms: &mut stepped_ms, now: t };
                        assert_eq!(stepped.step_cycle(&mut ctx, t >= end_at), VrStatus::Working);
                    }
                    if idle.retries {
                        ms.book_rejected_loads(Requestor::Runahead, idle.until - now);
                        retries += 1;
                    }
                    assert_eq!(format!("{stepped:?}"), format!("{eng:?}"), "idle from {now}");
                    assert_eq!(stepped_ms.stats(), ms.stats(), "idle from {now}");
                    (*ms, now, jumps) = (stepped_ms, idle.until, jumps + 1);
                }
                _ => {
                    let mut ctx = RaCtx { prog, mem, ms, now };
                    assert_eq!(eng.step_cycle(&mut ctx, now >= end_at), VrStatus::Working);
                    now += 1;
                }
            }
        }
        let mut ctx = RaCtx { prog, mem, ms, now };
        assert_eq!(eng.step_cycle(&mut ctx, true), VrStatus::Finished);
        (jumps, retries)
    }

    /// `idle_until` is exact, for the vector and the scalar engine:
    /// over every idle stretch it reports, stepping the engine cycle by
    /// cycle changes no engine state, and no memory statistic but the
    /// booked gather retries. A 4-entry MSHR file keeps the file full
    /// at gathers, chain scalar loads and batch boundaries alike; the
    /// interval ends halfway, so delayed termination is covered up to
    /// the finishing cycle (the scalar engine's cursor dies first).
    #[test]
    fn idle_stretches_match_stepping_every_cycle() {
        let mem_cfg = MemConfig { mshrs: 4, ..MemConfig::table1() };
        for lanes in [8, 16] {
            let (prog, mem, mut ms, cpu, _) = indirect_setup_on(mem_cfg.clone());
            let cfg = RunaheadConfig { vr_lanes: lanes, ..RunaheadConfig::vector() };
            let mut vr = VectorRunahead::new(cpu, &cfg, 5, 3);
            let (jumps, retries) = check_idle_stretches(&mut vr, &prog, &mem, &mut ms, 3000);
            assert!(vr.batches >= 2, "{lanes} lanes: {} batches", vr.batches);
            assert!(jumps > 0 && retries > 0, "{lanes} lanes: {jumps} jumps, {retries} retries");
        }
        let (prog, mem, mut ms, cpu, _) = indirect_setup_on(mem_cfg);
        let mut scalar = ScalarRunahead::new(cpu, None, 5);
        let (jumps, _) = check_idle_stretches(&mut scalar, &prog, &mem, &mut ms, 3000);
        assert!(scalar.is_dead() && jumps > 0, "scalar: {jumps} jumps");
    }

    #[test]
    fn no_confident_stride_means_no_batches() {
        let (prog, mem, _, cpu, _) = indirect_setup();
        // Fresh memory system: detector untrained.
        let mut ms = MemorySystem::new(MemConfig::table1());
        let mut vr = VectorRunahead::new(cpu, &RunaheadConfig::vector(), 5, 3);
        run_engine(&mut vr, &prog, &mem, &mut ms, 300);
        assert!(!vr.found_stride);
        assert_eq!(vr.batches, 0);
        // And once the interval is over, it reports Finished.
        let mut ctx = RaCtx { prog: &prog, mem: &mem, ms: &mut ms, now: 301 };
        assert_eq!(vr.step_cycle(&mut ctx, true), VrStatus::Finished);
    }

    #[test]
    fn delayed_termination_finishes_the_batch_first() {
        let (prog, mem, mut ms, cpu, _) = indirect_setup();
        let cfg = RunaheadConfig { vr_lanes: 16, ..RunaheadConfig::vector() };
        let mut vr = VectorRunahead::new(cpu, &cfg, 5, 3);
        // Run until the engine is mid-batch.
        let mut now = 0;
        while !vr.in_batch() && now < 100 {
            let mut ctx = RaCtx { prog: &prog, mem: &mem, ms: &mut ms, now };
            vr.step_cycle(&mut ctx, false);
            now += 1;
        }
        assert!(vr.in_batch());
        // Now the interval ends; the engine must keep Working until
        // the batch boundary, then report Finished.
        let mut finished_at = None;
        for t in now..now + 5000 {
            let mut ctx = RaCtx { prog: &prog, mem: &mem, ms: &mut ms, now: t };
            if vr.step_cycle(&mut ctx, true) == VrStatus::Finished {
                finished_at = Some(t);
                break;
            }
        }
        let f = finished_at.expect("delayed termination must eventually finish");
        assert!(f > now, "must spend at least one cycle completing the chain");
    }

    #[test]
    fn multiple_batches_march_down_the_array() {
        let (prog, mem, mut ms, cpu, _) = indirect_setup();
        let cfg = RunaheadConfig { vr_lanes: 8, ..RunaheadConfig::vector() };
        let mut vr = VectorRunahead::new(cpu, &cfg, 5, 3);
        run_engine(&mut vr, &prog, &mem, &mut ms, 6000);
        assert!(vr.batches >= 2, "expected several batches, got {}", vr.batches);
    }

    /// Divergence workload: lanes branch on the loaded value's parity.
    fn parity_setup() -> (Program, Memory, Cpu) {
        let mut a = Asm::new();
        let loop_top = a.here();
        a.add(Reg::T2, Reg::A0, Reg::T0); // 0
        a.ld(Reg::T3, Reg::T2, 0); // 1 ← striding load
        a.andi(Reg::T4, Reg::T3, 1); // 2
        let skip = a.label();
        a.beq(Reg::T4, Reg::ZERO, skip); // 3: diverges by parity
        a.slli(Reg::T5, Reg::T3, 3); // 4
        a.add(Reg::T5, Reg::T5, Reg::A1); // 5
        a.ld(Reg::T6, Reg::T5, 0); // 6: only odd lanes reach this
        a.bind(skip);
        a.addi(Reg::T0, Reg::T0, 8); // 7
        a.blt(Reg::T0, Reg::T1, loop_top); // 8
        a.halt();
        let prog = a.assemble();

        let mut mem = Memory::new();
        for i in 0..128u64 {
            mem.write_u64(0x10000 + i * 8, i); // alternating parity
        }
        let mut cpu = Cpu::new();
        cpu.set_x(Reg::A0, 0x10000);
        cpu.set_x(Reg::A1, 0x20000);
        cpu.set_x(Reg::T0, 32);
        cpu.set_x(Reg::T1, 128 * 8);
        (prog, mem, cpu)
    }

    #[test]
    fn divergent_lanes_are_invalidated() {
        // Loop where lanes branch on the loaded value's parity and the
        // values alternate: half the lanes must die.
        let (prog, mem, cpu) = parity_setup();
        let mut ms = MemorySystem::new(MemConfig::table1());
        for i in 0..4u64 {
            ms.train_prefetchers(1, 0x10000 + i * 8, 0, i, |_| 0);
        }

        let cfg = RunaheadConfig { vr_lanes: 16, ..RunaheadConfig::vector() };
        let mut vr = VectorRunahead::new(cpu, &cfg, 5, 3);
        run_engine(&mut vr, &prog, &mem, &mut ms, 3000);
        assert!(vr.found_stride);
        assert!(
            vr.lanes_invalidated >= 7,
            "alternating parity must kill ≈half the lanes per batch, got {}",
            vr.lanes_invalidated
        );
    }

    #[test]
    fn overhead_accounting_is_about_a_kilobyte() {
        let bytes = hardware_overhead_bytes(128);
        assert!((500..2000).contains(&bytes), "VR hardware overhead should be ≈1 KB, got {bytes}");
        let items = hardware_overhead_bits(128);
        assert!(items.iter().any(|(n, _)| n.contains("stride detector")));
        assert_eq!(items.iter().find(|(n, _)| n.contains("stride")).unwrap().1, 16 * 115);
    }

    // ---- SoA/mask machinery -----------------------------------------

    #[test]
    fn lane_mask_bit_ops() {
        let mut m = LaneMask::default();
        assert_eq!(m.first(), None);
        assert_eq!(m.last(), None);
        for i in [0usize, 5, 63, 64, 130, 255] {
            m.set(i);
        }
        assert_eq!(m.count(), 6);
        assert_eq!(m.first(), Some(0));
        assert_eq!(m.last(), Some(255));
        assert!(m.get(130) && !m.get(131));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 5, 63, 64, 130, 255]);
        m.clear(0);
        m.clear(255);
        assert_eq!(m.first(), Some(5));
        assert_eq!(m.last(), Some(130));

        let p = LaneMask::prefix(65);
        assert_eq!(p.count(), 65);
        assert_eq!(p.last(), Some(64));
        assert_eq!(LaneMask::prefix(MAX_LANES).count(), MAX_LANES);
        assert_eq!(LaneMask::prefix(0).count(), 0);

        // AND-NOT kills exactly the doomed lanes.
        let mut active = LaneMask::prefix(8);
        let mut doom = LaneMask::default();
        doom.set(2);
        doom.set(7);
        active &= !doom;
        assert_eq!(active.iter().collect::<Vec<_>>(), vec![0, 1, 3, 4, 5, 6]);
    }

    /// Drives the SWAR engine and the preserved scalar reference model
    /// over the same workload with identically warmed memory systems,
    /// then requires identical counters and identical prefetch
    /// coverage — the engine-level half of the differential oracle
    /// (the full-simulator half lives in `sim.rs`).
    fn assert_matches_reference(
        prog: &Program,
        mem: &Memory,
        cpu: Cpu,
        cfg: &RunaheadConfig,
        cycles: u64,
        probe: &[u64],
    ) {
        let warm_ms = || {
            let mut ms = MemorySystem::new(MemConfig::table1());
            for i in 0..4u64 {
                ms.train_prefetchers(1, 0x10000 + i * 8, 0, i, |_| 0);
            }
            ms
        };
        let mut ms_new = warm_ms();
        let mut ms_ref = warm_ms();
        let mut vr = VectorRunahead::new(cpu, cfg, 5, 3);
        let mut rf = ReferenceVectorRunahead::new(cpu, cfg, 5, 3);
        for now in 0..cycles {
            let iv = now > cycles * 3 / 4; // exercise delayed termination too
            let s_new = {
                let mut ctx = RaCtx { prog, mem, ms: &mut ms_new, now };
                vr.step_cycle(&mut ctx, iv)
            };
            let s_ref = {
                let mut ctx = RaCtx { prog, mem, ms: &mut ms_ref, now };
                rf.step_cycle(&mut ctx, iv)
            };
            assert_eq!(s_new, s_ref, "status diverged at cycle {now}");
        }
        assert_eq!(vr.found_stride, rf.found_stride);
        assert_eq!(vr.batches, rf.batches);
        assert_eq!(vr.batches_aborted, rf.batches_aborted);
        assert_eq!(vr.lanes_spawned, rf.lanes_spawned);
        assert_eq!(vr.lanes_invalidated, rf.lanes_invalidated);
        for &a in probe {
            assert_eq!(ms_new.in_l1(a), ms_ref.in_l1(a), "L1 state diverged at {a:#x}");
        }
    }

    #[test]
    fn swar_path_matches_scalar_reference() {
        // Indirect chain (gathers, scalar loads, back-edge).
        let (prog, mem, _, cpu, _) = indirect_setup();
        let probe: Vec<u64> = (0..256u64)
            .map(|i| 0x20000 + ((i * 37) % 256) * 8)
            .chain((0..256u64).map(|i| 0x10000 + i * 8))
            .collect();
        for lanes in [8, 16, 64] {
            let cfg = RunaheadConfig { vr_lanes: lanes, ..RunaheadConfig::vector() };
            assert_matches_reference(&prog, &mem, cpu, &cfg, 6000, &probe);
        }
        // No VIR pipelining (gathers barrier on the slowest lane).
        let cfg =
            RunaheadConfig { vr_lanes: 64, vir_pipelining: false, ..RunaheadConfig::vector() };
        assert_matches_reference(&prog, &mem, cpu, &cfg, 6000, &probe);
        // Bounded delayed termination.
        let cfg =
            RunaheadConfig { vr_lanes: 16, termination_slack: Some(4), ..RunaheadConfig::vector() };
        assert_matches_reference(&prog, &mem, cpu, &cfg, 6000, &probe);

        // Divergence (invalidation).
        let (prog, mem, cpu) = parity_setup();
        let probe: Vec<u64> = (0..128u64).map(|v| 0x20000 + v * 8).collect();
        let cfg = RunaheadConfig { vr_lanes: 16, ..RunaheadConfig::vector() };
        assert_matches_reference(&prog, &mem, cpu, &cfg, 4000, &probe);
    }

    #[test]
    fn poison_lanes_matches_reference() {
        // Poison mid-batch with the same RNG stream on both engines:
        // identical draws, identical doom set, identical aftermath.
        let (prog, mem, _, cpu, _) = indirect_setup();
        let cfg = RunaheadConfig { vr_lanes: 16, ..RunaheadConfig::vector() };
        let warm_ms = || {
            let mut ms = MemorySystem::new(MemConfig::table1());
            for i in 0..4u64 {
                ms.train_prefetchers(1, 0x10000 + i * 8, 0, i, |_| 0);
            }
            ms
        };
        let mut ms_new = warm_ms();
        let mut ms_ref = warm_ms();
        let mut vr = VectorRunahead::new(cpu, &cfg, 5, 3);
        let mut rf = ReferenceVectorRunahead::new(cpu, &cfg, 5, 3);
        for now in 0..4000u64 {
            {
                let mut ctx = RaCtx { prog: &prog, mem: &mem, ms: &mut ms_new, now };
                vr.step_cycle(&mut ctx, false);
            }
            {
                let mut ctx = RaCtx { prog: &prog, mem: &mem, ms: &mut ms_ref, now };
                rf.step_cycle(&mut ctx, false);
            }
            assert_eq!(vr.in_batch(), rf.in_batch(), "phase diverged at cycle {now}");
            if now % 97 == 0 && vr.in_batch() {
                let mut rng_a = vr_isa::SplitMix64::new(now ^ 0xfeed);
                let mut rng_b = vr_isa::SplitMix64::new(now ^ 0xfeed);
                let pa = vr.poison_lanes(&mut rng_a, 0.5);
                let pb = rf.poison_lanes(&mut rng_b, 0.5);
                assert_eq!(pa, pb, "poison count diverged at cycle {now}");
            }
        }
        assert_eq!(vr.batches, rf.batches);
        assert_eq!(vr.lanes_invalidated, rf.lanes_invalidated);
        assert_eq!(vr.lanes_spawned, rf.lanes_spawned);
    }

    #[test]
    fn scratch_capacities_stay_stable() {
        // Deep-chain steady state must not regrow any pooled buffer
        // past its construction-time pre-size (the zero-alloc gate's
        // engine-side half).
        let (prog, mem, mut ms, cpu, _) = indirect_setup();
        let cfg = RunaheadConfig { vr_lanes: 64, ..RunaheadConfig::vector() };
        let mut vr = VectorRunahead::new(cpu, &cfg, 5, 3);
        let caps0 = vr.buffer_caps().expect("a vector engine reports its buffers");
        assert!(caps0.0 >= 64 && caps0.1 >= 64 && caps0.2 >= 64, "pre-size at construction");
        run_engine(&mut vr, &prog, &mem, &mut ms, 10_000);
        assert_eq!(vr.buffer_caps(), Some(caps0), "steady state must not regrow lane buffers");
        // And a re-arm keeps the capacity.
        vr.reset(cpu, None, None);
        assert_eq!(vr.buffer_caps(), Some(caps0));
    }

    #[test]
    fn lane_mask_invariants_hold_mid_batch() {
        let (prog, mem, mut ms, cpu, _) = indirect_setup();
        let cfg = RunaheadConfig { vr_lanes: 16, ..RunaheadConfig::vector() };
        let mut vr = VectorRunahead::new(cpu, &cfg, 5, 3);
        let mut rng = vr_isa::SplitMix64::new(7);
        for now in 0..3000u64 {
            let mut ctx = RaCtx { prog: &prog, mem: &mem, ms: &mut ms, now };
            vr.step_cycle(&mut ctx, false);
            if now % 211 == 0 {
                vr.poison_lanes(&mut rng, 0.3);
            }
            vr.lane_mask_invariants().expect("masks stay disjoint and confined");
        }
    }
}
