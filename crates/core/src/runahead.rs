//! The runahead engine interface, and the scalar engines behind it:
//! classic invalidation-based runahead and Precise Runahead Execution
//! (PRE).
//!
//! Every engine pre-executes the *future* instruction stream from the
//! committed architectural state during a full-ROB stall. The
//! simulator builds one engine per core and drives it only through
//! [`RunaheadEngine`]. In the scalar engines, registers whose values
//! depend on a long-latency (LLC-missing) load are INV-propagated, so
//! dependent loads cannot compute addresses — the first-level-only
//! coverage limitation the paper's motivation describes. Vector
//! Runahead (in [`crate::vector`]) removes it by *waiting* for each
//! vectorized gather level.

use vr_isa::{Cpu, Memory, Program, RegRef, SplitMix64, StoreOverlay};
use vr_mem::{Access, HitLevel, MemorySystem, Requestor};

/// Shared per-cycle context handed to the runahead engines by the
/// simulator.
pub(crate) struct RaCtx<'a> {
    pub prog: &'a Program,
    pub mem: &'a Memory,
    pub ms: &'a mut MemorySystem,
    pub now: u64,
}

/// Result of one engine cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VrStatus {
    /// Still working (pre-executing, scanning, gathering, or following
    /// a chain).
    Working,
    /// The interval is over and the engine is at a safe point: leave
    /// runahead mode.
    Finished,
}

/// An idle stretch of an engine, reported by
/// [`RunaheadEngine::idle_until`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Idle {
    /// First cycle at which the engine may next do observable work.
    pub until: u64,
    /// Each idle cycle is one attempt at a gather sub-access that the
    /// full MSHR file rejects: the caller books those attempts
    /// ([`MemorySystem::book_rejected_loads`]).
    pub retries: bool,
}

/// What one episode's engine did, folded into
/// [`crate::SimStats`] (and the telemetry record) when the episode
/// ends.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub(crate) struct EpisodeCounters {
    /// Instructions pre-executed (scalar engines).
    pub insts: u64,
    /// A vector interval that never found a striding load.
    pub no_stride: bool,
    /// Vector batches completed or started.
    pub batches: u64,
    /// Vector batches abandoned by bounded delayed termination.
    pub batches_aborted: u64,
    /// Scalar-equivalent lanes spawned.
    pub lanes_spawned: u64,
    /// Lanes invalidated by divergence or faults.
    pub lanes_invalidated: u64,
}

/// One runahead engine: built once per core by the simulator and
/// re-armed in place by every trigger (DESIGN.md §12).
pub(crate) trait RunaheadEngine {
    /// Re-arms the engine for a fresh episode from the committed state
    /// `cpu`, positioned at the triggering load's PC. `blocked_dst` is
    /// the blocking load's destination (scalar engines start it INV);
    /// `base` seeds the first vector batch with a striding load's PC
    /// and last address (the eager trigger). Keeps every buffer's
    /// capacity, so a trigger allocates nothing.
    fn reset(&mut self, cpu: Cpu, blocked_dst: Option<RegRef>, base: Option<(u64, u64)>);

    /// Runs one cycle; `interval_over` is true once the blocking load
    /// has returned (or the episode expired). The cycles that report
    /// [`VrStatus::Finished`] are exactly those [`Self::finishes`]
    /// names.
    fn step_cycle(&mut self, ctx: &mut RaCtx<'_>, interval_over: bool) -> VrStatus;

    /// Whether [`Self::step_cycle`] at `now` may report
    /// [`VrStatus::Finished`]: the simulator's engine window stops
    /// before such a cycle and leaves it for a full tick.
    fn finishes(&self, prog: &Program, now: u64, interval_over: bool) -> bool;

    /// The engine's next idle stretch, given the current cycle and the
    /// episode's `end_at`: the first cycle at which it can next do
    /// observable work. `None` means the engine may act this cycle.
    /// Must be conservative, and cycle-exact when `Some`.
    fn idle_until(&self, prog: &Program, ms: &MemorySystem, now: u64, end_at: u64) -> Option<Idle>;

    /// Fault injection: invalidates each still-active lane with
    /// probability `frac`; returns how many were poisoned (0 for an
    /// engine without lanes).
    fn poison_lanes(&mut self, rng: &mut SplitMix64, frac: f64) -> u64;

    /// This episode's counters so far.
    fn counters(&self) -> EpisodeCounters;

    /// Structural self-check (the `checked` feature).
    #[cfg_attr(not(feature = "checked"), allow(dead_code))]
    fn invariants(&self) -> Result<(), String> {
        Ok(())
    }

    /// Capacities of the steady-state-critical buffers, for engines
    /// that have them (diagnostic for the alloc-budget test).
    fn buffer_caps(&self) -> Option<(usize, usize, usize)> {
        None
    }
}

/// The classic / PRE scalar runahead engine.
#[derive(Clone, Debug)]
pub struct ScalarRunahead {
    cursor: Cpu,
    overlay: StoreOverlay,
    inv: [bool; RegRef::FLAT_COUNT],
    /// Instructions pre-executed so far.
    insts: u64,
    /// Whether the cursor ran off the program or halted.
    dead: bool,
    /// Instructions processed per cycle. PRE's slice filtering is
    /// modelled as doubled effective throughput (see DESIGN.md).
    width: usize,
}

impl ScalarRunahead {
    /// Starts an engine from the committed architectural state
    /// (`cpu`, positioned at the blocking load's PC) with the blocking
    /// load's destination already INV.
    pub fn new(cpu: Cpu, blocked_dst: Option<RegRef>, width: usize) -> ScalarRunahead {
        let mut inv = [false; RegRef::FLAT_COUNT];
        if let Some(d) = blocked_dst {
            inv[d.flat_index()] = true;
        }
        ScalarRunahead {
            cursor: cpu,
            overlay: StoreOverlay::new(),
            inv,
            insts: 0,
            dead: false,
            width,
        }
    }

    /// Instructions pre-executed so far.
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// Whether the engine can do no further work.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Runs one cycle of runahead pre-execution; returns instructions
    /// processed.
    fn pre_execute(&mut self, ctx: &mut RaCtx<'_>) -> u64 {
        let mut done = 0;
        for _ in 0..self.width {
            if self.dead {
                break;
            }
            let Some(inst) = ctx.prog.fetch(self.cursor.pc()) else {
                self.dead = true;
                break;
            };
            let inst = *inst;

            // Compute INV status of sources before executing.
            let src_inv = inst.srcs().any(|s| self.inv[s.flat_index()]);

            // A valid-address load needs an MSHR slot available in
            // case it misses; otherwise retry next cycle (this is the
            // MSHR-limited MLP of scalar runahead).
            let is_mem = inst.is_load() || inst.is_store();
            if inst.is_load() && !src_inv && !ctx.ms.mshr_free(ctx.now) {
                break;
            }

            let step = match self.cursor.step_spec(ctx.prog, ctx.mem, &mut self.overlay) {
                Ok(s) => s,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            };
            if step.halted {
                self.dead = true;
            }
            self.insts += 1;
            done += 1;

            // Memory behaviour.
            let mut loaded_long = false;
            if is_mem && !src_inv {
                if let Some(me) = step.mem {
                    if !me.is_store {
                        match ctx.ms.access(
                            me.addr,
                            Access::Load,
                            Requestor::Runahead,
                            step.pc,
                            ctx.now,
                        ) {
                            Ok(out) => loaded_long = out.hit == HitLevel::Dram,
                            // MSHR raced away: treat like a miss.
                            Err(_) => loaded_long = true,
                        }
                    }
                    // Runahead stores never touch the memory system
                    // (they are dropped; forwarding happens via the
                    // overlay).
                }
            }

            // INV propagation into the destination.
            if let Some(d) = step.inst.dst() {
                self.inv[d.flat_index()] = src_inv || (step.inst.is_load() && loaded_long);
            }
        }
        done
    }
}

impl RunaheadEngine for ScalarRunahead {
    fn reset(&mut self, cpu: Cpu, blocked_dst: Option<RegRef>, _base: Option<(u64, u64)>) {
        self.cursor = cpu;
        self.overlay.clear();
        self.inv = [false; RegRef::FLAT_COUNT];
        if let Some(d) = blocked_dst {
            self.inv[d.flat_index()] = true;
        }
        self.insts = 0;
        self.dead = false;
    }

    /// A scalar episode ends exactly when its interval does (classic
    /// runahead exits when the blocking load returns).
    fn step_cycle(&mut self, ctx: &mut RaCtx<'_>, interval_over: bool) -> VrStatus {
        if interval_over {
            return VrStatus::Finished;
        }
        self.pre_execute(ctx);
        VrStatus::Working
    }

    fn finishes(&self, _prog: &Program, _now: u64, interval_over: bool) -> bool {
        interval_over
    }

    /// Once the cursor is dead, every cycle before the interval ends is
    /// a pure no-op.
    fn idle_until(&self, _: &Program, _: &MemorySystem, now: u64, end_at: u64) -> Option<Idle> {
        (self.dead && now < end_at).then_some(Idle { until: end_at, retries: false })
    }

    fn poison_lanes(&mut self, _rng: &mut SplitMix64, _frac: f64) -> u64 {
        0
    }

    fn counters(&self) -> EpisodeCounters {
        EpisodeCounters { insts: self.insts, ..EpisodeCounters::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_isa::{Asm, Reg};
    use vr_mem::MemConfig;

    fn ctx_parts() -> (Memory, MemorySystem) {
        (Memory::new(), MemorySystem::new(MemConfig::tiny_for_tests()))
    }

    /// Program: A[i] chain → B[A[i]] (one level of indirection).
    /// Classic runahead prefetches A (stride) and the *first* level B
    /// only when A hits; after an A miss, B's address is INV.
    #[test]
    fn inv_propagation_blocks_dependents_of_misses() {
        let mut a = Asm::new();
        // x10 = &A = 0x10000 ; x11 = &B = 0x20000
        a.ld(Reg::T0, Reg::A0, 0); // A[0]  (will miss → INV t0)
        a.slli(Reg::T1, Reg::T0, 3);
        a.add(Reg::T1, Reg::T1, Reg::A1);
        a.ld(Reg::T2, Reg::T1, 0); // B[A[0]] — INV address, no access
        a.halt();
        let prog = a.assemble();

        let (mut mem, mut ms) = ctx_parts();
        mem.write_u64(0x10000, 5);

        let mut cpu = Cpu::new();
        cpu.set_x(Reg::A0, 0x10000);
        cpu.set_x(Reg::A1, 0x20000);

        let mut ra = ScalarRunahead::new(cpu, None, 5);
        let mut c = RaCtx { prog: &prog, mem: &mem, ms: &mut ms, now: 0 };
        ra.pre_execute(&mut c);

        // Only the A access reached the memory system.
        assert_eq!(ms.stats().dram_reads_by(Requestor::Runahead), 1);
    }

    /// When the first load *hits* (prefetched earlier), the dependent
    /// level is reachable.
    #[test]
    fn dependents_of_hits_are_prefetched() {
        let mut a = Asm::new();
        a.ld(Reg::T0, Reg::A0, 0);
        a.slli(Reg::T1, Reg::T0, 3);
        a.add(Reg::T1, Reg::T1, Reg::A1);
        a.ld(Reg::T2, Reg::T1, 0);
        a.halt();
        let prog = a.assemble();

        let (mut mem, mut ms) = ctx_parts();
        mem.write_u64(0x10000, 5);
        // Pre-warm A's line so the first load hits in L1.
        ms.access(0x10000, Access::Load, Requestor::Main, 0, 0).unwrap();

        let mut cpu = Cpu::new();
        cpu.set_x(Reg::A0, 0x10000);
        cpu.set_x(Reg::A1, 0x20000);

        let mut ra = ScalarRunahead::new(cpu, None, 5);
        let mut c = RaCtx { prog: &prog, mem: &mem, ms: &mut ms, now: 1000 };
        ra.pre_execute(&mut c);

        // Both A (hit) and B[5] were accessed.
        assert!(ms.in_l1(0x20000 + 5 * 8) || ms.outstanding_misses(1000) > 0);
        assert_eq!(ms.stats().dram_reads_by(Requestor::Runahead), 1); // B miss
    }

    #[test]
    fn blocked_destination_starts_inv() {
        let mut a = Asm::new();
        a.slli(Reg::T1, Reg::T0, 3); // t1 <- f(t0): INV since t0 is the blocked dst
        a.add(Reg::T1, Reg::T1, Reg::A1);
        a.ld(Reg::T2, Reg::T1, 0); // INV address: no access
        a.halt();
        let prog = a.assemble();

        let (mem, mut ms) = ctx_parts();
        let cpu = Cpu::new();
        let mut ra = ScalarRunahead::new(cpu, Some(RegRef::Int(Reg::T0)), 5);
        let mut c = RaCtx { prog: &prog, mem: &mem, ms: &mut ms, now: 0 };
        ra.pre_execute(&mut c);
        assert_eq!(ms.stats().dram_reads_total(), 0);
    }

    #[test]
    fn inv_is_cleared_by_untainted_overwrite() {
        let mut a = Asm::new();
        a.li(Reg::T0, 0x30000); // overwrites the INV register with a constant
        a.ld(Reg::T1, Reg::T0, 0); // now a valid address again
        a.halt();
        let prog = a.assemble();

        let (mem, mut ms) = ctx_parts();
        let cpu = Cpu::new();
        let mut ra = ScalarRunahead::new(cpu, Some(RegRef::Int(Reg::T0)), 5);
        let mut c = RaCtx { prog: &prog, mem: &mem, ms: &mut ms, now: 0 };
        ra.pre_execute(&mut c);
        assert_eq!(ms.stats().dram_reads_total(), 1);
    }

    #[test]
    fn runahead_stores_never_reach_memory() {
        let mut a = Asm::new();
        a.li(Reg::T0, 42);
        a.st(Reg::T0, Reg::A0, 0);
        a.ld(Reg::T1, Reg::A0, 0); // forwarded from overlay
        a.halt();
        let prog = a.assemble();

        let (mem, mut ms) = ctx_parts();
        let mut cpu = Cpu::new();
        cpu.set_x(Reg::A0, 0x40000);
        let mut ra = ScalarRunahead::new(cpu, None, 5);
        let mut c = RaCtx { prog: &prog, mem: &mem, ms: &mut ms, now: 0 };
        ra.pre_execute(&mut c);
        // The load still probes the cache (prefetch effect), but no
        // store traffic exists and memory is untouched.
        assert_eq!(ms.stats().demand_stores, 0);
        assert_eq!(mem.read_u64(0x40000), 0);
        assert!(ra.is_dead());
        assert_eq!(ra.insts(), 4);
    }

    #[test]
    fn width_bounds_per_cycle_progress() {
        let mut a = Asm::new();
        for _ in 0..20 {
            a.nop();
        }
        a.halt();
        let prog = a.assemble();
        let (mem, mut ms) = ctx_parts();
        let mut ra = ScalarRunahead::new(Cpu::new(), None, 5);
        let mut c = RaCtx { prog: &prog, mem: &mem, ms: &mut ms, now: 0 };
        assert_eq!(ra.pre_execute(&mut c), 5);
        let mut c = RaCtx { prog: &prog, mem: &mem, ms: &mut ms, now: 1 };
        assert_eq!(ra.pre_execute(&mut c), 5);
    }
}
