//! The assembled memory system.

use crate::cache::{Cache, LineState};
use crate::config::MemConfig;
use crate::dram::Dram;
use crate::imp::Imp;
use crate::mshr::MshrFile;
use crate::shared::{SharedLlc, SharedOutcome};
use crate::stats::{MemStats, TimelinessLevel};
use crate::stride::StridePrefetcher;
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
    llc: Llc,
    mshr: MshrFile,
    stride: StridePrefetcher,
    imp: Imp,
    stats: MemStats,
    chaos: Option<PrefetchChaos>,
}

/// What serves this core's L2 misses.
#[derive(Clone, Debug)]
enum Llc {
    /// A single-core run: a private L3 in front of a private DRAM
    /// channel.
    Private { l3: Cache, dram: Dram },
    /// A chip run: the chip's shared banked LLC + DRAM broker, seen as
    /// core `core` (see [`crate::SharedLlc`]). The broker is owned by
    /// the chip and only *installed* here (`llc: Some`) for the
    /// duration of this core's tick — the chip moves the `Box` in
    /// before stepping the core and takes it back after, so the hot
    /// path is an uncontended `&mut` with no lock.
    Shared { core: u32, llc: Option<Box<SharedLlc>> },
}

/// Where an L1 miss found its line.
struct Found {
    hit: HitLevel,
    ready_at: u64,
    /// The found line's prefetch owner, taken by a demand touch.
    owner: Option<Requestor>,
    /// Dirtiness the line brings into L2: the found copy's, or for a
    /// DRAM fetch whether it serves a store.
    dirty: bool,
}

/// Folds an evicted line into the next level's resident copy: the
/// dirtiness joins, and a not-yet-consumed prefetch ownership moves
/// down with it (what makes the timeliness L2/L3 buckets mean
/// "prefetched, but evicted before use"). A copy holds one owner:
/// returns the victim's if the copy already had one.
fn absorb(line: &mut LineState, victim: LineState) -> Option<Requestor> {
    line.dirty |= victim.dirty;
    if line.prefetch_src.is_none() {
        line.prefetch_src = victim.prefetch_src;
        return None;
    }
    victim.prefetch_src
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
            llc: Llc::Private {
                l3: Cache::new(cfg.l3),
                dram: Dram::new(cfg.dram_min_latency, cfg.dram_cycles_per_line),
            },
            mshr: MshrFile::new(cfg.mshrs),
            stride: StridePrefetcher::new(streams, degree, distance),
            imp: Imp::new(cfg.imp_config),
            stats: MemStats::default(),
            chaos: None,
            cfg,
        }
    }

    /// Attaches this hierarchy to a chip-shared LLC + DRAM broker as
    /// core `core`, dropping the private L3 and DRAM. From then on
    /// every L2 miss crosses the chip interconnect into the shared
    /// banked LLC. Shared-L3 write-backs are accounted on the broker
    /// (chip-level stats), not in this core's
    /// [`MemStats::dram_writebacks`].
    ///
    /// This only marks the routing; the broker itself must be
    /// installed (and taken back) around every tick via
    /// [`MemorySystem::install_shared_llc`] /
    /// [`MemorySystem::take_shared_llc`] — an access while attached
    /// but not installed is a chip sequencing bug and panics.
    pub fn attach_shared_llc(&mut self, core: u32) {
        self.llc = Llc::Shared { core, llc: None };
    }

    /// Whether this hierarchy routes its L2 misses through a
    /// chip-shared LLC ([`MemorySystem::attach_shared_llc`]), i.e.
    /// whether other cores observe the order of its accesses.
    pub fn shared_attached(&self) -> bool {
        matches!(self.llc, Llc::Shared { .. })
    }

    /// Hands this core the chip's LLC broker for the duration of one
    /// tick (a `Box` move, no lock).
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy is not attached, or a broker is already
    /// installed (the chip failed to take it back).
    pub fn install_shared_llc(&mut self, broker: Box<SharedLlc>) {
        let Llc::Shared { llc, .. } = &mut self.llc else {
            panic!("install_shared_llc on an unattached hierarchy");
        };
        assert!(llc.is_none(), "shared LLC already installed (missing take_shared_llc)");
        *llc = Some(broker);
    }

    /// Takes the chip's LLC broker back after this core's tick.
    ///
    /// # Panics
    ///
    /// Panics if no broker is installed.
    pub fn take_shared_llc(&mut self) -> Box<SharedLlc> {
        match &mut self.llc {
            Llc::Shared { llc, .. } => llc.take(),
            Llc::Private { .. } => None,
        }
        .expect("take_shared_llc with no broker installed")
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

    /// Whether an MSHR entry is free at `now` (the runahead engines'
    /// scalar-load issue gate).
    pub fn mshr_free(&self, now: u64) -> bool {
        self.mshr_free_at(now) == now
    }

    /// The first cycle `>= now` at which an MSHR entry is free (see
    /// [`MshrFile::free_at`]).
    pub fn mshr_free_at(&self, now: u64) -> u64 {
        self.mshr.free_at(now)
    }

    /// Whether the line containing `addr` is resident in the L1-D.
    pub fn in_l1(&self, addr: u64) -> bool {
        self.l1d.contains(addr)
    }

    /// When a load of `addr` by `req` at `now` would be rejected for a
    /// full MSHR file, the first cycle at which it could be accepted:
    /// every attempt before it is rejected too, since no access in
    /// between can change the verdict. `Some` only when the file is
    /// full at `now`, the line is not in the L1 (a hit is accepted) and
    /// no MSHR entry for it is pending (a merge is accepted), and, for
    /// a prefetching requestor, the chaos layer is unarmed (its draws
    /// make each attempt different). Pure: expires and counts nothing.
    pub fn load_rejected_until(&self, addr: u64, req: Requestor, now: u64) -> Option<u64> {
        let free = self.mshr_free_at(now);
        if free == now || (req.is_prefetch() && self.chaos.is_some()) {
            return None;
        }
        let la = self.l1d.line_addr(addr);
        (!self.l1d.contains(la) && self.mshr.pending(la).is_none()).then_some(free)
    }

    /// Books `n` rejected load attempts by `req` at once — what `n`
    /// [`MemorySystem::access`] calls that
    /// [`MemorySystem::load_rejected_until`] proved rejected would have
    /// counted: [`MemStats::demand_loads`] for the main thread,
    /// [`MemStats::pf_dropped_mshr`] for a prefetching requestor.
    pub fn book_rejected_loads(&mut self, req: Requestor, n: u64) {
        if req.is_prefetch() {
            self.stats.pf_dropped_mshr += n;
        } else {
            self.stats.demand_loads += n;
        }
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
        let _ = pc;
        let now = if req.is_prefetch() { self.chaos_issue(now).ok_or(MshrFull)? } else { now };
        let mut outcome = self.do_access(addr, kind, req, now)?;
        if self.cfg.oracle && req == Requestor::Main && kind == Access::Load {
            outcome.ready_at = now + self.cfg.l1d.latency;
        }
        Ok(outcome)
    }

    /// Fault injection on *speculative* traffic only: the cycle a
    /// prefetch issued at `now` really issues (late if delayed), or
    /// `None` if it is dropped — which looks to the requestor exactly
    /// like a full MSHR file, as every speculative path tolerates.
    fn chaos_issue(&mut self, now: u64) -> Option<u64> {
        let Some(chaos) = &mut self.chaos else {
            return Some(now);
        };
        if chaos.rng.chance(chaos.drop_p) {
            self.stats.pf_dropped_fault += 1;
            return None;
        }
        if chaos.rng.chance(chaos.delay_p) {
            self.stats.pf_delayed_fault += 1;
            return Some(now + chaos.delay_cycles);
        }
        Some(now)
    }

    /// Counts the first demand use of a line `src` prefetched, found
    /// at `level`.
    fn count_use(&mut self, src: Requestor, level: TimelinessLevel) {
        self.stats.pf_used[MemStats::req_idx(src)] += 1;
        if src == Requestor::Runahead {
            self.stats.timeliness[MemStats::timeliness_idx(level)] += 1;
        }
    }

    /// Books an owner record that leaves the core's caches unused.
    fn count_evicted_unused(&mut self, owner: Option<Requestor>) {
        if let Some(src) = owner {
            self.stats.pf_evicted_unused[MemStats::req_idx(src)] += 1;
        }
    }

    /// Prefetched lines still resident and unused, per requestor: the
    /// owners found by one walk over the L1, the L2 and the private L3
    /// (a chip's shared LLC holds none). With `pf_used` and
    /// `pf_evicted_unused` this accounts for every `pf_issued`.
    pub fn pf_resident(&self) -> [u64; 4] {
        let mut n = [0; 4];
        let mut count = |c: &Cache| c.owners().for_each(|src| n[MemStats::req_idx(src)] += 1);
        count(&self.l1d);
        count(&self.l2);
        if let Llc::Private { l3, .. } = &self.llc {
            count(l3);
        }
        n
    }

    fn do_access(
        &mut self,
        addr: u64,
        kind: Access,
        req: Requestor,
        now: u64,
    ) -> Result<AccessOutcome, MshrFull> {
        let la = self.l1d.line_addr(addr);
        self.mshr.expire(now);

        let is_demand = req == Requestor::Main;
        let store = kind == Access::Store;
        if !is_demand && store {
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

        // Merge with an outstanding miss to the same line. A demand
        // merge touches the L1 copy the allocation installed as an L1
        // hit does. If that copy was evicted while pending, its owner
        // moved down with it and the demand touch that finds it there
        // books the use.
        if let Some(ready) = self.mshr.pending(la) {
            if is_demand {
                if !store {
                    self.stats.load_hits[MemStats::level_idx(HitLevel::Dram)] += 1;
                    self.stats.load_merges += 1;
                }
                if let Some(line) = self.l1d.lookup(la) {
                    line.dirty |= store;
                    if let Some(src) = line.prefetch_src.take() {
                        // The prefetch was issued but did not complete
                        // in time: "off-chip" timeliness.
                        self.count_use(src, TimelinessLevel::OffChip);
                    }
                }
            }
            return Ok(AccessOutcome {
                ready_at: ready.max(now + self.cfg.l1d.latency),
                hit: HitLevel::Dram,
            });
        }

        // L1 hit.
        if let Some(line) = self.l1d.lookup(la) {
            line.dirty |= store;
            if is_demand {
                if let Some(src) = line.prefetch_src.take() {
                    self.count_use(src, TimelinessLevel::L1);
                }
                if !store {
                    self.stats.load_hits[MemStats::level_idx(HitLevel::L1)] += 1;
                }
            }
            return Ok(AccessOutcome { ready_at: now + self.cfg.l1d.latency, hit: HitLevel::L1 });
        }

        // L1 miss from here on: it needs a private MSHR entry, and on
        // a chip a shared one too if the shared LLC misses.
        let found = self.mshr.has_free().then(|| self.lookup_below_l1(la, store, is_demand, now));
        let Some(Some(Found { hit, ready_at, owner, dirty })) = found else {
            if req.is_prefetch() {
                self.stats.pf_dropped_mshr += 1;
            }
            return Err(MshrFull);
        };
        if is_demand {
            if let Some(src) = owner {
                let level =
                    if hit == HitLevel::L2 { TimelinessLevel::L2 } else { TimelinessLevel::L3 };
                self.count_use(src, level);
            }
            if !store {
                self.stats.load_hits[MemStats::level_idx(hit)] += 1;
            }
        }
        self.mshr.allocate(la, now, ready_at);
        if hit == HitLevel::Dram {
            self.stats.dram_reads[MemStats::req_idx(req)] += 1;
        }
        if req.is_prefetch() {
            self.stats.pf_issued[MemStats::req_idx(req)] += 1;
        }
        // Fill inward. Prefetch ownership is tracked on the L1 copy
        // only (the level runahead prefetches into); lower-level copies
        // inherit it on eviction.
        if hit == HitLevel::Dram {
            self.fill_l3(la, false, None);
        }
        if hit != HitLevel::L2 {
            self.fill_l2(la, dirty, None);
        }
        self.fill_l1(la, store || dirty, req.is_prefetch().then_some(req));
        Ok(AccessOutcome { ready_at, hit })
    }

    /// The one lookup below L1: L2, then the private L3 or the chip's
    /// shared LLC, then DRAM. A demand touch takes the owner of the
    /// line it finds. `None` is a shared-MSHR-pool reject.
    fn lookup_below_l1(&mut self, la: u64, store: bool, demand: bool, now: u64) -> Option<Found> {
        let claim = |hit, ready_at, line: &mut LineState| {
            let owner = if demand { line.prefetch_src.take() } else { None };
            Found { hit, ready_at, owner, dirty: line.dirty }
        };
        let fetched = |ready_at| Found { hit: HitLevel::Dram, ready_at, owner: None, dirty: store };
        let arrive = now + self.cfg.l1d.latency + self.cfg.l2.latency;
        if let Some(line) = self.l2.lookup(la) {
            return Some(claim(HitLevel::L2, arrive, line));
        }
        match &mut self.llc {
            Llc::Private { l3, dram } => {
                let lookup_done = arrive + self.cfg.l3.latency;
                Some(match l3.lookup(la) {
                    Some(line) => claim(HitLevel::L3, lookup_done, line),
                    None => fetched(dram.read_line(lookup_done)),
                })
            }
            Llc::Shared { core, llc } => {
                let llc = llc.as_mut().expect("shared-LLC access with no broker installed");
                // The shared L3 tracks no per-core prefetch ownership,
                // so a shared hit never books a use and the L3
                // timeliness bucket is unreachable in chip runs
                // (DESIGN.md §16).
                match llc.access_line(*core, la, arrive) {
                    SharedOutcome::Hit { ready_at } => {
                        Some(Found { hit: HitLevel::L3, ready_at, owner: None, dirty: false })
                    }
                    SharedOutcome::Miss { ready_at } => Some(fetched(ready_at)),
                    SharedOutcome::Reject => None,
                }
            }
        }
    }

    /// Installs `la` in the L1. The victim lives on in L2.
    fn fill_l1(&mut self, la: u64, dirty: bool, pf_src: Option<Requestor>) {
        let Some(victim) = self.l1d.insert(la, dirty, pf_src) else {
            return;
        };
        match self.l2.lookup(victim.line_addr) {
            Some(line) => {
                let lost = absorb(line, victim);
                self.count_evicted_unused(lost);
            }
            None => self.fill_l2(victim.line_addr, victim.dirty, victim.prefetch_src),
        }
    }

    /// Installs `la` in the L2. The victim is folded into the private
    /// L3's copy, installed there if dirty, or else dropped; on a chip
    /// it leaves the core for the shared LLC (merge or, if dirty,
    /// install). Prefetch ownership does not leave the core: a dropped
    /// or handed-over owner is booked evicted unused.
    fn fill_l2(&mut self, la: u64, dirty: bool, pf_src: Option<Requestor>) {
        let Some(victim) = self.l2.insert(la, dirty, pf_src) else {
            return;
        };
        let lost = match &mut self.llc {
            Llc::Private { l3, .. } => match l3.lookup(victim.line_addr) {
                Some(line) => absorb(line, victim),
                None if victim.dirty => {
                    self.fill_l3(victim.line_addr, true, victim.prefetch_src);
                    None
                }
                None => victim.prefetch_src,
            },
            Llc::Shared { core, llc } => {
                let llc = llc.as_mut().expect("shared-LLC victim outside a chip core-step");
                llc.fill_victim(*core, victim.line_addr, victim.dirty);
                victim.prefetch_src
            }
        };
        self.count_evicted_unused(lost);
    }

    /// Installs `la` in the private L3, writing a dirty victim back to
    /// DRAM. A no-op on a chip, whose shared LLC fills itself.
    fn fill_l3(&mut self, la: u64, dirty: bool, pf_src: Option<Requestor>) {
        let Llc::Private { l3, dram } = &mut self.llc else {
            return;
        };
        let Some(victim) = l3.insert(la, dirty, pf_src) else {
            return;
        };
        if victim.dirty {
            dram.write_line(0);
            self.stats.dram_writebacks += 1;
        }
        self.count_evicted_unused(victim.prefetch_src);
    }

    /// Issues a (drop-on-full) prefetch for the line containing `addr`.
    /// Returns `true` if a new fetch was actually started.
    pub fn prefetch(&mut self, addr: u64, req: Requestor, now: u64) -> bool {
        debug_assert!(req.is_prefetch(), "prefetch requires a prefetching requestor");
        let Some(now) = self.chaos_issue(now) else {
            return false;
        };
        let la = self.l1d.line_addr(addr);
        self.mshr.expire(now);
        if self.l1d.contains(la) || self.mshr.pending(la).is_some() {
            return false;
        }
        // Reserve the last two MSHR entries for demand misses so that
        // prefetch storms cannot starve the main thread.
        if self.mshr.outstanding() + Self::DEMAND_RESERVED_MSHRS > self.config().mshrs {
            self.stats.pf_dropped_mshr += 1;
            return false;
        }
        self.do_access(addr, Access::Load, req, now).is_ok()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_obs::Counters;

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
    fn rejected_until_matches_access_and_booking_matches_retries() {
        // 4 MSHRs, 4 L1 sets of 2 ways. One line resident in set 1,
        // then four misses to set 0: the first two are evicted from the
        // L1 while their fills are still pending.
        let mut ms = sys();
        ms.access(0x1040, Access::Load, Requestor::Main, 1, 300).unwrap();
        let free = (0..4u64)
            .map(|i| ms.access(0x8000 + i * 0x100, Access::Load, Requestor::Main, i, 1000 + i))
            .map(|r| r.unwrap().ready_at)
            .min()
            .unwrap();
        assert!(!ms.in_l1(0x8000));
        let now = 1010;
        let new_line = 0x20_000;
        for req in [Requestor::Main, Requestor::Runahead] {
            assert_eq!(ms.load_rejected_until(new_line, req, now), Some(free), "{req:?}");
            assert_eq!(ms.load_rejected_until(0x1040, req, now), None, "L1 hit");
            assert_eq!(ms.load_rejected_until(0x8308, req, now), None, "merge, line in L1");
            assert_eq!(ms.load_rejected_until(0x8008, req, now), None, "merge, line evicted");
            assert_eq!(ms.load_rejected_until(new_line, req, free), None, "an entry frees");
        }
        // Every attempt up to `free` is rejected, and the bulk booking
        // counts what the attempts counted.
        let mut stepped = ms.clone();
        let mut booked = ms.clone();
        for t in now..free {
            assert!(stepped.access(new_line, Access::Load, Requestor::Main, 9, t).is_err());
            assert!(stepped.access(new_line, Access::Load, Requestor::Runahead, 9, t).is_err());
        }
        booked.book_rejected_loads(Requestor::Main, free - now);
        booked.book_rejected_loads(Requestor::Runahead, free - now);
        assert_eq!(stepped.stats(), booked.stats());
        assert!(stepped.access(new_line, Access::Load, Requestor::Main, 9, free).is_ok());
        // An armed chaos layer draws per prefetch attempt: no verdict.
        ms.set_prefetch_chaos(0.0, 0.0, 1);
        assert_eq!(ms.load_rejected_until(new_line, Requestor::Runahead, now), None);
        assert_eq!(ms.load_rejected_until(new_line, Requestor::Main, now), Some(free));
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

    /// Demand-loads `n` lines that share line 0's L1 set (4 sets) and
    /// L2 set (8 sets) on the tiny hierarchy, one every `every` cycles
    /// from `start`: two push line 0 out of the L1, four out of the L2
    /// too, while it stays in its 16-set L3. Returns the next free
    /// cycle.
    fn evict_line0(ms: &mut MemorySystem, n: u64, start: u64, every: u64) -> u64 {
        for k in 1..=n {
            ms.access(k * 0x200, Access::Load, Requestor::Main, 1, start + k * every).unwrap();
        }
        start + (n + 1) * every
    }

    /// Every issued prefetch has exactly one outcome: used, evicted
    /// unused, or still resident.
    fn assert_law(ms: &MemorySystem) {
        let (s, resident) = (ms.stats(), ms.pf_resident());
        for i in 0..4 {
            assert_eq!(
                s.pf_issued[i],
                s.pf_used[i] + s.pf_evicted_unused[i] + resident[i],
                "requestor {i}: {s:?}, resident {resident:?}"
            );
        }
    }

    #[test]
    fn demand_merges_into_a_pending_prefetch_count_one_use() {
        let mut ms = sys();
        assert!(ms.prefetch(0x2000, Requestor::Runahead, 0));
        for t in 1..=4 {
            let r = ms.access(0x2000 + t * 8, Access::Load, Requestor::Main, 5, t).unwrap();
            assert_eq!(r.hit, HitLevel::Dram);
        }
        let s = ms.stats();
        assert_eq!(s.load_merges, 4);
        assert_eq!(s.pf_used[MemStats::req_idx(Requestor::Runahead)], 1);
        assert_eq!(s.timeliness, [0, 0, 0, 1]);
        assert_law(&ms);
    }

    #[test]
    fn prefetch_evicted_from_l1_while_pending_is_used_once_at_l2() {
        let ra = MemStats::req_idx(Requestor::Runahead);
        let mut ms = sys();
        assert!(ms.prefetch(0, Requestor::Runahead, 0));
        assert_eq!(ms.pf_resident()[ra], 1);
        // Two loads push line 0 out of the L1 before its fill (242).
        let now = evict_line0(&mut ms, 2, 0, 10);
        assert!(!ms.in_l1(0) && now < 242);
        assert_eq!(ms.pf_resident()[ra], 1, "the owner moved down to the L2 copy");
        // The merge finds no L1 copy, so it books nothing.
        let r = ms.access(0, Access::Load, Requestor::Main, 5, now).unwrap();
        assert_eq!(r.hit, HitLevel::Dram);
        assert_eq!(ms.stats().pf_used[ra], 0);
        // The demand touch that finds the line in the L2 books the use.
        let r = ms.access(0, Access::Load, Requestor::Main, 5, 1000).unwrap();
        assert_eq!(r.hit, HitLevel::L2);
        let s = ms.stats();
        assert_eq!(s.pf_used[ra], 1);
        assert_eq!(s.timeliness, [0, 1, 0, 0]);
        assert_eq!(s.pf_evicted_unused[ra], 0);
        assert_eq!(ms.pf_resident()[ra], 0);
        assert_law(&ms);
    }

    #[test]
    fn unused_prefetches_are_booked_where_their_owner_leaves() {
        let (ra, stride) =
            (MemStats::req_idx(Requestor::Runahead), MemStats::req_idx(Requestor::Stride));
        let mut ms = sys();
        // A runahead prefetch, evicted to the L2 unused; a stride
        // prefetch of the same line then owns the new L1 copy.
        assert!(ms.prefetch(0, Requestor::Runahead, 0));
        let now = evict_line0(&mut ms, 2, 1000, 1000);
        assert!(ms.prefetch(0, Requestor::Stride, now));
        assert_eq!(ms.pf_resident(), [0, 1, 1, 0]);
        assert_law(&ms);
        // Its eviction folds into the L2 copy, which keeps its owner:
        // the stride prefetch left unused.
        let now = evict_line0(&mut ms, 2, now, 1000);
        assert_eq!(ms.stats().pf_evicted_unused[stride], 1);
        assert_eq!(ms.pf_resident(), [0, 1, 0, 0]);
        assert_law(&ms);
        // Lines sharing line 0's L3 set push it out of every level.
        for k in 1..=16 {
            ms.access(k * 0x400, Access::Load, Requestor::Main, 1, now + k * 1000).unwrap();
        }
        assert_eq!(ms.stats().pf_evicted_unused[ra], 1);
        assert_eq!(ms.pf_resident(), [0; 4]);
        assert_law(&ms);
    }

    #[test]
    fn runahead_prefetch_evicted_from_l1_counts_l2_timeliness() {
        let mut ms = sys();
        assert!(ms.prefetch(0, Requestor::Runahead, 0));
        let now = evict_line0(&mut ms, 2, 1000, 1000);
        assert!(!ms.in_l1(0));
        let r = ms.access(0, Access::Load, Requestor::Main, 5, now).unwrap();
        assert_eq!(r.hit, HitLevel::L2);
        assert_eq!(r.ready_at, now + 4 + 8);
        let s = ms.stats();
        assert_eq!(s.timeliness, [0, 1, 0, 0]);
        assert_eq!(s.pf_used[MemStats::req_idx(Requestor::Runahead)], 1);
        // The demand touch consumed the ownership: a re-touch after
        // another eviction is a plain hit.
        let now = evict_line0(&mut ms, 2, now, 1000);
        ms.access(0, Access::Load, Requestor::Main, 5, now).unwrap();
        assert_eq!(ms.stats().pf_used[MemStats::req_idx(Requestor::Runahead)], 1);
    }

    #[test]
    fn runahead_prefetch_evicted_from_l1_and_l2_counts_l3_timeliness() {
        let mut ms = sys();
        assert!(ms.prefetch(0, Requestor::Runahead, 0));
        let now = evict_line0(&mut ms, 6, 1000, 1000);
        let r = ms.access(0, Access::Load, Requestor::Main, 5, now).unwrap();
        assert_eq!(r.hit, HitLevel::L3);
        let s = ms.stats();
        assert_eq!(s.timeliness, [0, 0, 1, 0]);
        assert_eq!(s.pf_used[MemStats::req_idx(Requestor::Runahead)], 1);
        assert_eq!(s.load_hits[MemStats::level_idx(HitLevel::L3)], 1);
    }

    #[test]
    fn private_l3_hit_latency() {
        let mut ms = sys();
        ms.access(0, Access::Load, Requestor::Main, 1, 0).unwrap();
        let now = evict_line0(&mut ms, 6, 1000, 1000);
        let reads = ms.stats().dram_reads_total();
        let r = ms.access(0, Access::Load, Requestor::Main, 1, now).unwrap();
        assert_eq!(r.hit, HitLevel::L3);
        // 4 + 8 + 30 lookup, no DRAM.
        assert_eq!(r.ready_at, now + 42);
        assert_eq!(ms.stats().dram_reads_total(), reads);
    }

    fn shared_sys(shared_mshrs: usize) -> MemorySystem {
        let cfg = MemConfig::tiny_for_tests();
        let llc = SharedLlc::new(crate::SharedLlcConfig {
            l3: cfg.l3,
            dram_min_latency: cfg.dram_min_latency,
            dram_cycles_per_line: cfg.dram_cycles_per_line,
            banks: 4,
            bank_service_cycles: 4,
            shared_mshrs,
        });
        let mut ms = MemorySystem::new(cfg);
        ms.attach_shared_llc(0);
        ms.install_shared_llc(Box::new(llc));
        ms
    }

    #[test]
    fn shared_llc_miss_and_reject_through_access() {
        let mut ms = shared_sys(1);
        let r = ms.access(0x1000, Access::Load, Requestor::Main, 1, 0).unwrap();
        assert_eq!(r.hit, HitLevel::Dram);
        // 4 + 8 to the interconnect, 30 shared L3, 200 DRAM.
        assert_eq!(r.ready_at, 242);
        assert_eq!(ms.stats().dram_reads_total(), 1);
        // The one shared MSHR is busy: a prefetch is turned away as an
        // MSHR-full drop and holds no private MSHR.
        assert_eq!(
            ms.access(0x2000, Access::Load, Requestor::Runahead, 2, 1).unwrap_err(),
            MshrFull
        );
        assert_eq!(ms.stats().pf_dropped_mshr, 1);
        assert_eq!(ms.stats().pf_issued[MemStats::req_idx(Requestor::Runahead)], 0);
        assert_eq!(ms.outstanding_misses(1), 1);
        // So is a demand load, which counts no drop.
        assert!(ms.access(0x3000, Access::Load, Requestor::Main, 3, 2).is_err());
        assert_eq!(ms.stats().pf_dropped_mshr, 1);
        assert_eq!(ms.outstanding_misses(2), 1);
        let llc = ms.take_shared_llc();
        assert_eq!((llc.stats().llc_misses, llc.stats().shared_mshr_rejections), (1, 2));
    }

    #[test]
    fn shared_llc_hit_reports_no_prefetch_owner() {
        let mut ms = shared_sys(4);
        assert!(ms.prefetch(0, Requestor::Runahead, 0));
        let now = evict_line0(&mut ms, 6, 1000, 1000);
        let r = ms.access(0, Access::Load, Requestor::Main, 5, now).unwrap();
        assert_eq!(r.hit, HitLevel::L3);
        assert_eq!(r.ready_at, now + 42);
        // Prefetch ownership does not cross into the shared LLC: the
        // L2 victim handed over is booked evicted unused.
        let s = ms.stats();
        assert_eq!(s.timeliness, [0; 4]);
        assert_eq!(s.pf_used[MemStats::req_idx(Requestor::Runahead)], 0);
        assert_eq!(s.pf_evicted_unused[MemStats::req_idx(Requestor::Runahead)], 1);
        assert_law(&ms);
        assert_eq!(s.load_hits[MemStats::level_idx(HitLevel::L3)], 1);
        assert_eq!(ms.take_shared_llc().stats().llc_hits, 1);
    }
}
