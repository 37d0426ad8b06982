//! The assembled memory system.

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::dram::Dram;
use crate::imp::Imp;
use crate::mshr::MshrFile;
use crate::shared::{SharedLlc, SharedOutcome};
use crate::stats::{MemStats, TimelinessLevel};
use crate::stride::StridePrefetcher;
use crate::telemetry::PfTelemetry;
use crate::Requestor;
use vr_isa::SplitMix64;

/// Kind of memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// A read.
    Load,
    /// A write (write-allocate, write-back).
    Store,
}

/// Level that served an access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HitLevel {
    /// L1 data cache hit.
    L1,
    /// L2 hit.
    L2,
    /// L3 (LLC) hit.
    L3,
    /// Served from DRAM (LLC miss), or merged with an outstanding
    /// DRAM fetch.
    Dram,
}

/// Result of an [`MemorySystem::access`].
#[derive(Clone, Copy, Debug)]
pub struct AccessOutcome {
    /// Absolute cycle at which the data is available.
    pub ready_at: u64,
    /// Level that served the access.
    pub hit: HitLevel,
    /// If the line was brought in by a prefetcher/runahead and this is
    /// its first demand touch: who prefetched it.
    pub prefetched_by: Option<Requestor>,
}

/// Error: the MSHR file has no free entry; the access must be retried
/// (demand) or dropped (prefetch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MshrFull;

impl std::fmt::Display for MshrFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all MSHR entries are in use")
    }
}

impl std::error::Error for MshrFull {}

/// Seeded chaos applied to *speculative* traffic only (prefetches) —
/// the fault-injection harness's lever inside the memory system.
/// Because demand accesses are untouched, any schedule of drops and
/// delays is architecturally invisible by construction; what it
/// perturbs is timing and coverage, which the differential oracle
/// verifies does not leak into committed state.
#[derive(Clone, Copy, Debug)]
struct PrefetchChaos {
    drop_p: f64,
    delay_p: f64,
    delay_cycles: u64,
    rng: SplitMix64,
}

/// Three-level hierarchy + MSHRs + DRAM + prefetchers.
///
/// See the crate docs for the timing contract. The instruction cache
/// is not modelled: every evaluated kernel is a loop of at most a few
/// hundred instructions, which trivially resides in the 32 KB L1-I
/// (documented substitution in DESIGN.md).
#[derive(Clone, Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    mshr: MshrFile,
    dram: Dram,
    stride: StridePrefetcher,
    imp: Imp,
    stats: MemStats,
    chaos: Option<PrefetchChaos>,
    /// Optional prefetch-lifecycle tracker. Boxed so the disabled
    /// (default) case costs one pointer; every hook is an `if let` on
    /// a prefetch *bookkeeping* path, never the per-access fast path.
    telemetry: Option<Box<PfTelemetry>>,
    /// Chip-shared LLC attachment. `None` (the default) keeps the
    /// private L3 + DRAM path untouched — single-core timing is
    /// bit-identical to a build without this field.
    shared: Option<SharedAttachment>,
}

/// Attachment of this per-core hierarchy to a chip-shared LLC broker:
/// when present, every L2 miss bypasses the private L3/DRAM and goes
/// through the shared banked LLC instead (see [`crate::SharedLlc`]).
///
/// The broker itself is owned by the chip and only *installed* here
/// (`llc: Some`) for the duration of this core's tick — the chip moves
/// the `Box` in before stepping the core and takes it back after, so
/// the hot path is an uncontended `&mut` with no lock.
#[derive(Clone, Debug)]
struct SharedAttachment {
    llc: Option<Box<SharedLlc>>,
    core: u32,
}

impl MemorySystem {
    /// MSHR entries a hardware prefetcher may never occupy.
    pub const DEMAND_RESERVED_MSHRS: usize = 2;

    /// Builds the memory system from a configuration.
    pub fn new(cfg: MemConfig) -> MemorySystem {
        let (streams, degree, distance) = cfg.stride_params;
        MemorySystem {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            mshr: MshrFile::new(cfg.mshrs),
            dram: Dram::new(cfg.dram_min_latency, cfg.dram_cycles_per_line),
            stride: StridePrefetcher::new(streams, degree, distance),
            imp: Imp::new(cfg.imp_config),
            stats: MemStats::default(),
            chaos: None,
            telemetry: None,
            shared: None,
            cfg,
        }
    }

    /// Attaches this hierarchy to a chip-shared LLC + DRAM broker as
    /// core `core`. From then on every L2 miss crosses the chip
    /// interconnect into the shared banked LLC instead of the private
    /// L3/DRAM; the private L3 sits unused. Shared-L3 write-backs are
    /// accounted on the broker (chip-level stats), not in this core's
    /// [`MemStats::dram_writebacks`].
    ///
    /// This only marks the routing; the broker itself must be
    /// installed (and taken back) around every tick via
    /// [`MemorySystem::install_shared_llc`] /
    /// [`MemorySystem::take_shared_llc`] — an access while attached
    /// but not installed is a chip sequencing bug and panics.
    pub fn attach_shared_llc(&mut self, core: u32) {
        self.shared = Some(SharedAttachment { llc: None, core });
    }

    /// Whether this hierarchy routes its L2 misses through a
    /// chip-shared LLC ([`MemorySystem::attach_shared_llc`]), i.e.
    /// whether other cores observe the order of its accesses.
    pub fn shared_attached(&self) -> bool {
        self.shared.is_some()
    }

    /// Hands this core the chip's LLC broker for the duration of one
    /// tick (a `Box` move, no lock).
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy is not attached, or a broker is already
    /// installed (the chip failed to take it back).
    pub fn install_shared_llc(&mut self, llc: Box<SharedLlc>) {
        let sh = self.shared.as_mut().expect("install_shared_llc on an unattached hierarchy");
        assert!(sh.llc.is_none(), "shared LLC already installed (missing take_shared_llc)");
        sh.llc = Some(llc);
    }

    /// Takes the chip's LLC broker back after this core's tick.
    ///
    /// # Panics
    ///
    /// Panics if no broker is installed.
    pub fn take_shared_llc(&mut self) -> Box<SharedLlc> {
        self.shared
            .as_mut()
            .and_then(|sh| sh.llc.take())
            .expect("take_shared_llc with no broker installed")
    }

    /// Enables per-line prefetch-lifecycle telemetry, retaining the
    /// last `capacity` completed lifecycles. The reported [`MemStats`]
    /// are bit-identical with telemetry on or off — the tracker only
    /// observes the bookkeeping the hierarchy already performs.
    pub fn enable_telemetry(&mut self, capacity: usize) {
        self.telemetry = Some(Box::new(PfTelemetry::new(capacity)));
    }

    /// The prefetch-lifecycle tracker, if enabled.
    pub fn telemetry(&self) -> Option<&PfTelemetry> {
        self.telemetry.as_deref()
    }

    /// Arms the fault-injection chaos layer: every subsequent
    /// speculative prefetch is independently dropped with probability
    /// `drop_p` or delayed by ~200 cycles with probability `delay_p`
    /// (seeded, so runs are reproducible). Demand traffic is never
    /// touched.
    pub fn set_prefetch_chaos(&mut self, drop_p: f64, delay_p: f64, seed: u64) {
        self.chaos = Some(PrefetchChaos {
            drop_p,
            delay_p,
            delay_cycles: 200,
            rng: SplitMix64::new(seed ^ 0xC4A0_5F11),
        });
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// MSHR occupancy integral (for the MLP figure).
    pub fn mshr_occupancy_integral(&self) -> u64 {
        self.mshr.occupancy_integral()
    }

    /// Number of outstanding L1-D misses at `now`.
    pub fn outstanding_misses(&mut self, now: u64) -> usize {
        self.mshr.expire(now);
        self.mshr.outstanding()
    }

    /// Whether an MSHR entry is free at `now` (VR's gather issue gate).
    pub fn mshr_free(&mut self, now: u64) -> bool {
        self.mshr.expire(now);
        self.mshr.has_free()
    }

    /// Whether the line containing `addr` is resident in the L1-D.
    pub fn in_l1(&self, addr: u64) -> bool {
        self.l1d.contains(addr)
    }

    /// Performs a demand or speculative access at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`MshrFull`] when the access misses the L1 and no MSHR
    /// entry is free. Demand accesses should be retried on a later
    /// cycle; prefetches should be dropped.
    pub fn access(
        &mut self,
        addr: u64,
        kind: Access,
        req: Requestor,
        pc: u64,
        now: u64,
    ) -> Result<AccessOutcome, MshrFull> {
        let mut now = now;
        // Fault injection on *speculative* traffic only: a dropped
        // access looks to the requestor exactly like a full MSHR file
        // (which every speculative path already tolerates); a delayed
        // one simply issues late. Demand traffic is never touched.
        if req.is_prefetch() {
            if let Some(chaos) = &mut self.chaos {
                if chaos.rng.chance(chaos.drop_p) {
                    self.stats.pf_dropped_fault += 1;
                    return Err(MshrFull);
                }
                if chaos.rng.chance(chaos.delay_p) {
                    now += chaos.delay_cycles;
                    self.stats.pf_delayed_fault += 1;
                }
            }
        }
        let mut outcome = self.do_access(addr, kind, req, pc, now)?;
        if self.cfg.oracle && req == Requestor::Main && kind == Access::Load {
            outcome.ready_at = now + self.cfg.l1d.latency;
        }
        Ok(outcome)
    }

    fn do_access(
        &mut self,
        addr: u64,
        kind: Access,
        req: Requestor,
        pc: u64,
        now: u64,
    ) -> Result<AccessOutcome, MshrFull> {
        let _ = pc;
        let la = self.l1d.line_addr(addr);
        self.mshr.expire(now);

        let is_demand = req == Requestor::Main;
        if !is_demand && kind == Access::Store {
            // Speculative requestors must never write: runahead is
            // architecturally invisible only if its stores stay out of
            // the hierarchy. The `checked` invariant layer asserts this
            // counter remains 0.
            self.stats.spec_stores += 1;
        }
        if is_demand {
            match kind {
                Access::Load => self.stats.demand_loads += 1,
                Access::Store => self.stats.demand_stores += 1,
            }
        }

        // 1. Merge with an outstanding miss to the same line.
        if let Some(ready) = self.mshr.pending(la) {
            let owner = self.mshr.requestor_of(la);
            if is_demand {
                if kind == Access::Load {
                    self.stats.load_hits[MemStats::level_idx(HitLevel::Dram)] += 1;
                    self.stats.load_merges += 1;
                }
                if let Some(owner) = owner {
                    if owner.is_prefetch() {
                        // The prefetch was issued but did not complete
                        // in time: "off-chip" timeliness.
                        if owner == Requestor::Runahead {
                            self.stats.timeliness
                                [MemStats::timeliness_idx(TimelinessLevel::OffChip)] += 1;
                        }
                        self.stats.pf_used[MemStats::req_idx(owner)] += 1;
                        if let Some(t) = &mut self.telemetry {
                            t.on_use(la, TimelinessLevel::OffChip, now);
                        }
                        // Transfer line ownership to the demand stream
                        // so later touches count as plain hits.
                        if let Some(line) = self.l1d.lookup(la) {
                            line.prefetch_src = None;
                        }
                    }
                }
            }
            if kind == Access::Store {
                if let Some(line) = self.l1d.lookup(la) {
                    line.dirty = true;
                }
            }
            return Ok(AccessOutcome {
                ready_at: ready.max(now + self.cfg.l1d.latency),
                hit: HitLevel::Dram,
                prefetched_by: owner.filter(|o| o.is_prefetch()),
            });
        }

        // 2. L1 hit.
        if let Some(line) = self.l1d.lookup(la) {
            if kind == Access::Store {
                line.dirty = true;
            }
            let prefetched_by = line.prefetch_src;
            if is_demand {
                if let Some(src) = line.prefetch_src.take() {
                    self.stats.pf_used[MemStats::req_idx(src)] += 1;
                    if src == Requestor::Runahead {
                        self.stats.timeliness[MemStats::timeliness_idx(TimelinessLevel::L1)] += 1;
                    }
                    if let Some(t) = &mut self.telemetry {
                        t.on_use(la, TimelinessLevel::L1, now);
                    }
                }
                if kind == Access::Load {
                    self.stats.load_hits[MemStats::level_idx(HitLevel::L1)] += 1;
                }
            }
            return Ok(AccessOutcome {
                ready_at: now + self.cfg.l1d.latency,
                hit: HitLevel::L1,
                prefetched_by,
            });
        }

        // L1 miss from here on: an MSHR entry is required.
        if !self.mshr.has_free() {
            if req.is_prefetch() {
                self.stats.pf_dropped_mshr += 1;
            }
            return Err(MshrFull);
        }

        let l1_lat = self.cfg.l1d.latency;
        let l2_lat = self.cfg.l2.latency;
        let l3_lat = self.cfg.l3.latency;

        // 3. L2 hit.
        if let Some(line) = self.l2.lookup(la) {
            let was_pf = line.prefetch_src;
            let dirty = line.dirty;
            if is_demand {
                if let Some(src) = line.prefetch_src.take() {
                    self.stats.pf_used[MemStats::req_idx(src)] += 1;
                    if src == Requestor::Runahead {
                        self.stats.timeliness[MemStats::timeliness_idx(TimelinessLevel::L2)] += 1;
                    }
                    if let Some(t) = &mut self.telemetry {
                        t.on_use(la, TimelinessLevel::L2, now);
                    }
                }
                if kind == Access::Load {
                    self.stats.load_hits[MemStats::level_idx(HitLevel::L2)] += 1;
                }
            }
            let ready = now + l1_lat + l2_lat;
            self.mshr.allocate(la, now, ready, req);
            if req.is_prefetch() {
                self.stats.pf_issued[MemStats::req_idx(req)] += 1;
                if let Some(t) = &mut self.telemetry {
                    t.on_issue(la, req, now, ready, HitLevel::L2);
                }
            }
            self.fill_l1(la, kind, req, dirty, now);
            return Ok(AccessOutcome { ready_at: ready, hit: HitLevel::L2, prefetched_by: was_pf });
        }

        // 4'/5' (chip runs only). With a shared LLC attached, an L2
        // miss crosses the chip interconnect after the private L1+L2
        // lookup; the shared broker replaces steps 4 and 5 entirely.
        // The broker access is an uncontended `&mut` — the chip
        // installs the owned broker around this core's tick (computed
        // in its own scope so the `self.shared` borrow ends before the
        // outcome is applied to the private structures below).
        let shared_outcome = match self.shared.as_mut() {
            None => None,
            Some(sh) => {
                let core = sh.core;
                let llc = sh
                    .llc
                    .as_mut()
                    .expect("shared-LLC access outside a chip core-step (broker not installed)");
                Some(llc.access_line(core, la, now + l1_lat + l2_lat))
            }
        };
        if let Some(outcome) = shared_outcome {
            return match outcome {
                SharedOutcome::Hit { ready_at } => {
                    if is_demand && kind == Access::Load {
                        self.stats.load_hits[MemStats::level_idx(HitLevel::L3)] += 1;
                    }
                    self.mshr.allocate(la, now, ready_at, req);
                    if req.is_prefetch() {
                        self.stats.pf_issued[MemStats::req_idx(req)] += 1;
                        if let Some(t) = &mut self.telemetry {
                            t.on_issue(la, req, now, ready_at, HitLevel::L3);
                        }
                    }
                    // The shared L3 tracks no per-core prefetch
                    // ownership, so a shared hit never reports
                    // `prefetched_by` and the L3 timeliness bucket is
                    // unreachable in chip runs (DESIGN.md §16).
                    self.fill_l2_flagged(la, None, false, now);
                    self.fill_l1(la, kind, req, false, now);
                    Ok(AccessOutcome { ready_at, hit: HitLevel::L3, prefetched_by: None })
                }
                SharedOutcome::Miss { ready_at } => {
                    self.mshr.allocate(la, now, ready_at, req);
                    self.stats.dram_reads[MemStats::req_idx(req)] += 1;
                    if req.is_prefetch() {
                        self.stats.pf_issued[MemStats::req_idx(req)] += 1;
                        if let Some(t) = &mut self.telemetry {
                            t.on_issue(la, req, now, ready_at, HitLevel::Dram);
                        }
                    }
                    if is_demand && kind == Access::Load {
                        self.stats.load_hits[MemStats::level_idx(HitLevel::Dram)] += 1;
                    }
                    let pf_src = req.is_prefetch().then_some(req);
                    self.fill_l2_flagged(la, None, kind == Access::Store, now);
                    self.fill_l1_flagged(la, pf_src, kind == Access::Store, now);
                    Ok(AccessOutcome { ready_at, hit: HitLevel::Dram, prefetched_by: None })
                }
                SharedOutcome::Reject => {
                    if req.is_prefetch() {
                        self.stats.pf_dropped_mshr += 1;
                    }
                    Err(MshrFull)
                }
            };
        }

        // 4. L3 hit.
        if let Some(line) = self.l3.lookup(la) {
            let was_pf = line.prefetch_src;
            let dirty = line.dirty;
            if is_demand {
                if let Some(src) = line.prefetch_src.take() {
                    self.stats.pf_used[MemStats::req_idx(src)] += 1;
                    if src == Requestor::Runahead {
                        self.stats.timeliness[MemStats::timeliness_idx(TimelinessLevel::L3)] += 1;
                    }
                    if let Some(t) = &mut self.telemetry {
                        t.on_use(la, TimelinessLevel::L3, now);
                    }
                }
                if kind == Access::Load {
                    self.stats.load_hits[MemStats::level_idx(HitLevel::L3)] += 1;
                }
            }
            let ready = now + l1_lat + l2_lat + l3_lat;
            self.mshr.allocate(la, now, ready, req);
            if req.is_prefetch() {
                self.stats.pf_issued[MemStats::req_idx(req)] += 1;
                if let Some(t) = &mut self.telemetry {
                    t.on_issue(la, req, now, ready, HitLevel::L3);
                }
            }
            // Prefetch ownership is tracked on the L1 copy only; the
            // L2 copy inherits it on eviction (fill_l1_flagged), which
            // is what the timeliness L2/L3 buckets mean.
            self.fill_l2_flagged(la, None, dirty, now);
            self.fill_l1(la, kind, req, dirty, now);
            return Ok(AccessOutcome { ready_at: ready, hit: HitLevel::L3, prefetched_by: was_pf });
        }

        // 5. DRAM.
        let lookup_done = now + l1_lat + l2_lat + l3_lat;
        let ready = self.dram.read_line(lookup_done);
        self.mshr.allocate(la, now, ready, req);
        self.stats.dram_reads[MemStats::req_idx(req)] += 1;
        if req.is_prefetch() {
            self.stats.pf_issued[MemStats::req_idx(req)] += 1;
            if let Some(t) = &mut self.telemetry {
                t.on_issue(la, req, now, ready, HitLevel::Dram);
            }
        }
        if is_demand && kind == Access::Load {
            self.stats.load_hits[MemStats::level_idx(HitLevel::Dram)] += 1;
        }
        let pf_src = req.is_prefetch().then_some(req);
        // Flag only the L1 copy (the level runahead prefetches into);
        // lower-level copies inherit the flag on eviction.
        self.fill_l3(la, None, false, now);
        self.fill_l2_flagged(la, None, kind == Access::Store, now);
        self.fill_l1_flagged(la, pf_src, kind == Access::Store, now);
        Ok(AccessOutcome { ready_at: ready, hit: HitLevel::Dram, prefetched_by: None })
    }

    fn fill_l1(&mut self, la: u64, kind: Access, req: Requestor, dirty: bool, now: u64) {
        let pf_src = req.is_prefetch().then_some(req);
        self.fill_l1_flagged(la, pf_src, kind == Access::Store || dirty, now);
    }

    fn fill_l1_flagged(&mut self, la: u64, pf_src: Option<Requestor>, dirty: bool, now: u64) {
        if let Some(victim) = self.l1d.insert(la, dirty, pf_src) {
            // The victim lives on in L2: carry its dirtiness and its
            // not-yet-consumed prefetch ownership down with it (this
            // is what makes the timeliness L2/L3 buckets mean
            // "prefetched, but evicted before use").
            match self.l2.lookup(victim.line_addr) {
                Some(line) => {
                    line.dirty |= victim.dirty;
                    if line.prefetch_src.is_none() {
                        line.prefetch_src = victim.prefetch_src;
                    }
                }
                None => self.fill_l2_flagged_src(
                    victim.line_addr,
                    victim.prefetch_src,
                    victim.dirty,
                    now,
                ),
            }
        }
    }

    fn fill_l2_flagged(&mut self, la: u64, pf_src: Option<Requestor>, dirty: bool, now: u64) {
        self.fill_l2_flagged_src(la, pf_src, dirty, now);
    }

    fn fill_l2_flagged_src(&mut self, la: u64, pf_src: Option<Requestor>, dirty: bool, now: u64) {
        if let Some(victim) = self.l2.insert(la, dirty, pf_src) {
            match self.l3.lookup(victim.line_addr) {
                Some(line) => {
                    line.dirty |= victim.dirty;
                    if line.prefetch_src.is_none() {
                        line.prefetch_src = victim.prefetch_src;
                    }
                }
                None => {
                    let shared = if let Some(sh) = self.shared.as_mut() {
                        // Chip run: the victim leaves the private
                        // hierarchy into the shared LLC (merge or, if
                        // dirty, install). Prefetch ownership does not
                        // cross the boundary — its lifecycle ends here.
                        let core = sh.core;
                        sh.llc
                            .as_mut()
                            .expect("shared-LLC victim outside a chip core-step")
                            .fill_victim(core, victim.line_addr, victim.dirty);
                        true
                    } else {
                        false
                    };
                    if shared {
                        if victim.prefetch_src.is_some() {
                            if let Some(t) = &mut self.telemetry {
                                t.on_evict(victim.line_addr, now);
                            }
                        }
                    } else if victim.dirty {
                        self.fill_l3(victim.line_addr, victim.prefetch_src, true, now);
                    } else if victim.prefetch_src.is_some() {
                        // A clean, still-flagged victim with no L3 copy
                        // is silently dropped: the prefetched line has
                        // left the hierarchy without ever being used.
                        if let Some(t) = &mut self.telemetry {
                            t.on_evict(victim.line_addr, now);
                        }
                    }
                }
            }
        }
    }

    fn fill_l3(&mut self, la: u64, pf_src: Option<Requestor>, dirty: bool, now: u64) {
        if let Some(victim) = self.l3.insert(la, dirty, pf_src) {
            if victim.dirty {
                self.dram.write_line(0);
                self.stats.dram_writebacks += 1;
            }
            if victim.prefetch_src.is_some() {
                // The still-flagged L3 victim is the last copy (the
                // flag only reaches L3 after the L1/L2 copies were
                // themselves evicted): unused-prefetch lifecycle ends.
                if let Some(t) = &mut self.telemetry {
                    t.on_evict(victim.line_addr, now);
                }
            }
        }
    }

    /// Issues a (drop-on-full) prefetch for the line containing `addr`.
    /// Returns `true` if a new fetch was actually started.
    pub fn prefetch(&mut self, addr: u64, req: Requestor, now: u64) -> bool {
        debug_assert!(req.is_prefetch(), "prefetch requires a prefetching requestor");
        let mut now = now;
        if let Some(chaos) = &mut self.chaos {
            if chaos.rng.chance(chaos.drop_p) {
                self.stats.pf_dropped_fault += 1;
                return false;
            }
            if chaos.rng.chance(chaos.delay_p) {
                now += chaos.delay_cycles;
                self.stats.pf_delayed_fault += 1;
            }
        }
        let la = self.l1d.line_addr(addr);
        self.mshr.expire(now);
        if self.l1d.contains(la) || self.mshr.is_pending(la) {
            return false;
        }
        // Reserve the last two MSHR entries for demand misses so that
        // prefetch storms cannot starve the main thread.
        if self.mshr.outstanding() + Self::DEMAND_RESERVED_MSHRS > self.config().mshrs {
            self.stats.pf_dropped_mshr += 1;
            return false;
        }
        self.do_access(addr, Access::Load, req, 0, now).is_ok()
    }

    /// Trains the hardware prefetchers on a main-thread demand load
    /// and lets them issue their prefetches. `peek` reads the current
    /// functional memory contents (used by IMP to resolve future index
    /// values, modelling its fetch-then-compute pipeline).
    pub fn train_prefetchers(
        &mut self,
        pc: u64,
        addr: u64,
        value: u64,
        now: u64,
        peek: impl Fn(u64) -> u64,
    ) {
        if self.cfg.stride_prefetcher {
            for pf_addr in self.stride.train(pc, addr) {
                self.prefetch(pf_addr, Requestor::Stride, now);
            }
        } else {
            // The stride *detector* still trains (VR needs it even
            // when the prefetcher itself is disabled in ablations).
            let _ = self.stride.train(pc, addr);
        }
        if self.cfg.imp {
            match self.stride.detector().confident_stride(pc) {
                Some(stride) => {
                    self.imp.observe_index_value(pc, value);
                    for pf in self.imp.prefetches(pc, addr, stride) {
                        // IMP first fetches the future index element…
                        self.prefetch(pf.index_addr, Requestor::Imp, now);
                        // …then computes and fetches the target. The
                        // value is peeked functionally; timing-wise the
                        // target fetch is charged the index line's L1
                        // latency as issue delay.
                        let v = peek(pf.index_addr);
                        self.prefetch(pf.target(v), Requestor::Imp, now + self.cfg.l1d.latency);
                    }
                }
                None => self.imp.observe_load(pc, addr),
            }
        }
    }

    /// The stride detector state (shared with Vector Runahead's
    /// striding-load detection).
    pub fn stride_detector(&self) -> &crate::stride::StrideDetector {
        self.stride.detector()
    }

    /// Total DRAM lines transferred (reads + write-backs).
    pub fn dram_lines_transferred(&self) -> u64 {
        self.dram.lines_transferred()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemConfig::tiny_for_tests())
    }

    #[test]
    fn miss_then_hit_latency() {
        let mut ms = sys();
        let r = ms.access(0x1000, Access::Load, Requestor::Main, 7, 0).unwrap();
        assert_eq!(r.hit, HitLevel::Dram);
        // 4+8+30 lookup + 200 DRAM = 242.
        assert_eq!(r.ready_at, 242);
        let r2 = ms.access(0x1000, Access::Load, Requestor::Main, 7, 300).unwrap();
        assert_eq!(r2.hit, HitLevel::L1);
        assert_eq!(r2.ready_at, 304);
    }

    #[test]
    fn same_line_misses_merge() {
        let mut ms = sys();
        let r1 = ms.access(0x1000, Access::Load, Requestor::Main, 7, 0).unwrap();
        let r2 = ms.access(0x1008, Access::Load, Requestor::Main, 8, 1).unwrap();
        assert_eq!(r2.ready_at, r1.ready_at);
        assert_eq!(ms.stats().load_merges, 1);
        assert_eq!(ms.stats().dram_reads_total(), 1);
    }

    #[test]
    fn mshr_exhaustion_rejects_demand() {
        let mut ms = sys(); // 4 MSHRs
        for i in 0..4u64 {
            ms.access(0x1000 + i * 64, Access::Load, Requestor::Main, i, 0).unwrap();
        }
        assert!(matches!(ms.access(0x9000, Access::Load, Requestor::Main, 99, 0), Err(MshrFull)));
        // After the fills return, capacity frees up.
        assert!(ms.access(0x9000, Access::Load, Requestor::Main, 99, 500).is_ok());
    }

    #[test]
    fn demand_loads_counts_attempts_load_hits_counts_loads() {
        let mut ms = sys(); // 4 MSHRs
        for i in 0..4u64 {
            ms.access(0x1000 + i * 64, Access::Load, Requestor::Main, i, 0).unwrap();
        }
        let before = *ms.stats();
        // One load, rejected twice while the file is full, then served.
        assert!(matches!(ms.access(0x9000, Access::Load, Requestor::Main, 9, 1), Err(MshrFull)));
        assert!(matches!(ms.access(0x9000, Access::Load, Requestor::Main, 9, 2), Err(MshrFull)));
        assert!(ms.access(0x9000, Access::Load, Requestor::Main, 9, 500).is_ok());
        let d = ms.stats().delta(&before);
        assert_eq!(d.demand_loads, 3, "every attempt counts");
        assert_eq!(d.load_hits.iter().sum::<u64>(), 1, "the load is served once");
    }

    #[test]
    fn l2_and_l3_capacity_hits() {
        let mut ms = sys();
        // Fill L1 (512 B = 8 lines) beyond capacity with 16 lines.
        for i in 0..16u64 {
            ms.access(i * 64, Access::Load, Requestor::Main, 1, i * 1000).unwrap();
        }
        // Line 0 was evicted from L1 (LRU) but lives in L2.
        let r = ms.access(0, Access::Load, Requestor::Main, 1, 100_000).unwrap();
        assert_eq!(r.hit, HitLevel::L2);
        assert_eq!(r.ready_at, 100_000 + 12);
    }

    #[test]
    fn dirty_eviction_reaches_dram_writeback() {
        let mut ms = sys();
        // Store to a line, then stream enough lines through to evict
        // it from every level (L3 holds 128 lines in tiny config).
        ms.access(0, Access::Store, Requestor::Main, 1, 0).unwrap();
        for i in 1..1000u64 {
            ms.access(i * 64, Access::Load, Requestor::Main, 1, i * 300).unwrap();
        }
        assert!(ms.stats().dram_writebacks > 0, "dirty line must be written back");
    }

    #[test]
    fn runahead_prefetch_timeliness_l1() {
        let mut ms = sys();
        assert!(ms.prefetch(0x2000, Requestor::Runahead, 0));
        // Main thread arrives after the fill completes: L1 timely hit.
        let r = ms.access(0x2000, Access::Load, Requestor::Main, 5, 400).unwrap();
        assert_eq!(r.hit, HitLevel::L1);
        assert_eq!(r.prefetched_by, Some(Requestor::Runahead));
        assert_eq!(ms.stats().timeliness[0], 1); // L1 bucket
        assert_eq!(ms.stats().pf_used[MemStats::req_idx(Requestor::Runahead)], 1);
        // Second touch is a plain hit, not double-counted.
        ms.access(0x2000, Access::Load, Requestor::Main, 5, 500).unwrap();
        assert_eq!(ms.stats().pf_used[MemStats::req_idx(Requestor::Runahead)], 1);
    }

    #[test]
    fn runahead_prefetch_in_transit_counts_off_chip() {
        let mut ms = sys();
        ms.prefetch(0x2000, Requestor::Runahead, 0);
        // Main thread arrives while the line is still in flight.
        let r = ms.access(0x2000, Access::Load, Requestor::Main, 5, 10).unwrap();
        assert_eq!(r.hit, HitLevel::Dram);
        assert_eq!(ms.stats().timeliness[3], 1); // off-chip bucket
    }

    #[test]
    fn duplicate_prefetches_are_suppressed() {
        let mut ms = sys();
        assert!(ms.prefetch(0x2000, Requestor::Runahead, 0));
        assert!(!ms.prefetch(0x2000, Requestor::Runahead, 1), "pending line");
        assert!(!ms.prefetch(0x2000, Requestor::Runahead, 500), "resident line");
        assert_eq!(ms.stats().dram_reads_by(Requestor::Runahead), 1);
    }

    #[test]
    fn stride_prefetcher_hides_streaming_misses() {
        let mut cfg = MemConfig::tiny_for_tests();
        cfg.stride_prefetcher = true;
        cfg.mshrs = 8; // leave headroom beyond the demand reservation
        let mut ms = MemorySystem::new(cfg);
        let mut now = 0u64;
        let mut late_misses = 0;
        for i in 0..200u64 {
            let r = loop {
                match ms.access(0x10_000 + i * 64, Access::Load, Requestor::Main, 42, now) {
                    Ok(r) => break r,
                    Err(MshrFull) => now += 10,
                }
            };
            ms.train_prefetchers(42, 0x10_000 + i * 64, 0, now, |_| 0);
            if i >= 50 && r.hit == HitLevel::Dram {
                late_misses += 1;
            }
            now = r.ready_at + 10;
        }
        assert!(
            late_misses < 40,
            "stride prefetcher should cover most of a streaming walk, {late_misses} late misses"
        );
        assert!(ms.stats().pf_used[MemStats::req_idx(Requestor::Stride)] > 50);
    }

    #[test]
    fn oracle_mode_returns_l1_latency_for_demand_loads() {
        let mut ms = MemorySystem::new(MemConfig { oracle: true, ..MemConfig::tiny_for_tests() });
        let r = ms.access(0x7000, Access::Load, Requestor::Main, 1, 0).unwrap();
        assert_eq!(r.ready_at, 4);
        // Traffic is still accounted.
        assert_eq!(ms.stats().dram_reads_total(), 1);
        // Non-demand accesses are not accelerated.
        let r2 = ms.access(0x8000, Access::Load, Requestor::Runahead, 1, 0).unwrap();
        assert!(r2.ready_at > 200);
    }

    #[test]
    fn prefetch_chaos_drops_are_counted_and_deterministic() {
        let run = |seed: u64| {
            let mut ms = sys();
            ms.set_prefetch_chaos(0.5, 0.0, seed);
            for i in 0..64u64 {
                ms.prefetch(0x10_000 + i * 64, Requestor::Runahead, i * 1000);
            }
            ms.stats().pf_dropped_fault
        };
        let a = run(42);
        assert!(a > 0, "with p=0.5 over 64 tries some prefetch must drop");
        assert!(a < 64, "not every prefetch may drop");
        assert_eq!(a, run(42), "same seed, same drops");
    }

    #[test]
    fn prefetch_chaos_delay_still_fetches_the_line() {
        let mut ms = sys();
        ms.set_prefetch_chaos(0.0, 1.0, 7);
        assert!(ms.prefetch(0x2000, Requestor::Runahead, 0));
        assert_eq!(ms.stats().pf_delayed_fault, 1);
        // The line still arrives, just ~200 cycles late.
        let r = ms.access(0x2000, Access::Load, Requestor::Main, 5, 1000).unwrap();
        assert_eq!(r.hit, HitLevel::L1);
    }

    #[test]
    fn speculative_stores_are_counted() {
        let mut ms = sys();
        assert_eq!(ms.stats().spec_stores, 0);
        ms.access(0x3000, Access::Store, Requestor::Runahead, 1, 0).unwrap();
        assert_eq!(ms.stats().spec_stores, 1);
        // Demand stores do not count.
        ms.access(0x4000, Access::Store, Requestor::Main, 1, 0).unwrap();
        assert_eq!(ms.stats().spec_stores, 1);
    }

    #[test]
    fn outstanding_misses_tracks_mshr_occupancy() {
        let mut ms = sys();
        ms.access(0x1000, Access::Load, Requestor::Main, 1, 0).unwrap();
        ms.access(0x2000, Access::Load, Requestor::Main, 2, 0).unwrap();
        assert_eq!(ms.outstanding_misses(10), 2);
        assert_eq!(ms.outstanding_misses(10_000), 0);
    }
}
