//! Chip-shared banked LLC + DRAM broker for multi-core simulation.
//!
//! In a single-core run the L3 and DRAM live inside each core's
//! private [`crate::MemorySystem`]. A chip run lifts them out: every
//! core's L2-miss traffic funnels into one [`SharedLlc`] — a banked L3
//! with **age-ordered (FCFS) arbitration** per bank, one shared DRAM
//! channel (the global bandwidth budget), and a fixed pool of shared
//! MSHRs (the global outstanding-miss budget). One core's runahead
//! burst therefore visibly delays another core's demand misses, which
//! is exactly the contention the chip experiments measure.
//!
//! **Arbitration policy (documented choice).** Each bank is modelled
//! as a single-ported structure busy for [`SharedLlc::bank_service_cycles`]
//! per request, serving requests oldest-first. Under the chip's
//! lockstep clock requests arrive in nondecreasing timestamp order
//! (cores are stepped cycle by cycle, in core-index order within a
//! cycle), so the age-ordered queue collapses to a per-bank
//! *busy-until* timestamp: a request arriving at `t` starts service at
//! `max(t, bank_next_free)` and the difference is its arbitration
//! stall. Ties within a cycle are served in core-index order — the
//! arrival order itself. This keeps per-bank state at two words
//! (pre-sized, allocation-free in steady state — the alloc gate
//! covers a 4-core chip).
//!
//! **No coherence, disjoint address spaces.** Each core runs its own
//! workload image, so numerically equal addresses on different cores
//! are *different* data. Shared-LLC tags are therefore salted with the
//! core index ([`SharedLlc::tag`]) — cores never alias each other's
//! lines (no false sharing, no cross-core MSHR merging), they only
//! compete for capacity, banks, MSHRs and DRAM bandwidth.
//!
//! **Ownership (no lock).** The broker is a plain owned value: the
//! chip holds it in a `Box` and *installs* it into the stepping core's
//! hierarchy before that core's tick, taking it back afterwards — a
//! pointer move on a single thread, in core-index order, so every
//! access uses an uncontended `&mut` and the per-access
//! `Arc<Mutex<_>>` of the original design is gone entirely (see
//! `vr_chip` for the install/take protocol and its equivalence
//! argument).

use crate::cache::{Cache, CacheConfig};
use crate::dram::Dram;

/// Geometry and timing of the shared LLC broker.
#[derive(Clone, Copy, Debug)]
pub struct SharedLlcConfig {
    /// The shared L3 geometry/latency (typically the per-core
    /// [`crate::MemConfig::l3`]).
    pub l3: CacheConfig,
    /// Shared DRAM minimum latency in cycles.
    pub dram_min_latency: u64,
    /// Shared DRAM cycles per line transfer (bandwidth).
    pub dram_cycles_per_line: u64,
    /// Number of LLC banks (need not be a power of two; the bank hash
    /// reduces modulo this count).
    pub banks: usize,
    /// Cycles a bank is busy per request (its single-ported service
    /// time).
    pub bank_service_cycles: u64,
    /// Shared MSHR pool: maximum LLC misses outstanding to DRAM across
    /// all cores. A full pool rejects the miss (the core retries, like
    /// a private MSHR-full).
    pub shared_mshrs: usize,
}

/// Contention counters accumulated by the shared broker, read out into
/// `vr_chip::ChipStats` at the end of a run.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SharedLlcStats {
    /// Requests that waited on a bank busy with a *different* core's
    /// request.
    pub bank_conflicts: u64,
    /// Total cycles requests spent waiting for their bank (age-ordered
    /// arbitration delay, summed over requests).
    pub arbitration_stall_cycles: u64,
    /// LLC misses rejected because the shared MSHR pool was full.
    pub shared_mshr_rejections: u64,
    /// Shared-LLC hits.
    pub llc_hits: u64,
    /// Shared-LLC misses sent to DRAM.
    pub llc_misses: u64,
    /// Dirty shared-LLC victims written back to DRAM.
    pub dram_writebacks: u64,
}

/// Outcome of one shared-LLC access (the shared analogue of the
/// private L3-hit / DRAM steps of [`crate::MemorySystem`]).
#[derive(Clone, Copy, Debug)]
pub enum SharedOutcome {
    /// The line was resident in the shared L3; data ready at
    /// `ready_at` (bank wait + L3 latency included).
    Hit {
        /// Absolute cycle the data is available at the requesting core.
        ready_at: u64,
    },
    /// LLC miss, fetched from the shared DRAM channel.
    Miss {
        /// Absolute cycle the line arrives (bank wait + L3 lookup +
        /// DRAM queueing + DRAM latency).
        ready_at: u64,
    },
    /// The shared MSHR pool is full: the miss cannot be tracked. The
    /// core sees a (private) MSHR-full and retries.
    Reject,
}

/// The chip-shared banked LLC + DRAM broker. See the module docs for
/// the model; construction pre-sizes every per-bank and in-flight
/// structure so steady state is allocation-free.
#[derive(Clone, Debug)]
pub struct SharedLlc {
    l3: Cache,
    dram: Dram,
    cfg: SharedLlcConfig,
    /// Cycle each bank becomes free (the collapsed age-ordered queue).
    bank_next_free: Box<[u64]>,
    /// Last core a bank served (distinguishes bank *conflicts* — two
    /// cores contending — from self-queueing).
    bank_last_core: Box<[u32]>,
    /// LLC misses in flight to DRAM (the shared MSHR pool).
    inflight: InflightPool,
    stats: SharedLlcStats,
}

/// The shared MSHR pool: ready times of LLC misses in flight to DRAM,
/// pre-sized to the pool's capacity and expired lazily. Like
/// [`crate::MshrFile`] it caches the earliest ready time, so an arrival
/// before it skips the `retain` entirely.
#[derive(Clone, Debug)]
struct InflightPool {
    ready: Vec<u64>,
    /// `min(ready)`, `u64::MAX` when empty.
    next_ready: u64,
}

impl InflightPool {
    fn new(capacity: usize) -> InflightPool {
        InflightPool { ready: Vec::with_capacity(capacity), next_ready: u64::MAX }
    }

    /// Drops the fetches complete by `now`. `retain` on the pre-sized
    /// vec never allocates.
    fn expire(&mut self, now: u64) {
        if now < self.next_ready {
            return;
        }
        self.ready.retain(|&r| r > now);
        self.next_ready = self.ready.iter().copied().min().unwrap_or(u64::MAX);
    }

    fn push(&mut self, ready_at: u64) {
        self.ready.push(ready_at);
        self.next_ready = self.next_ready.min(ready_at);
    }

    fn len(&self) -> usize {
        self.ready.len()
    }
}

impl SharedLlc {
    /// Builds the broker; all state is pre-sized here.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `shared_mshrs` is zero (a broker that can
    /// serve nothing is a configuration bug, not a run-time condition).
    pub fn new(cfg: SharedLlcConfig) -> SharedLlc {
        assert!(cfg.banks > 0, "shared LLC needs at least one bank");
        assert!(cfg.shared_mshrs > 0, "shared LLC needs at least one MSHR");
        SharedLlc {
            l3: Cache::new(cfg.l3),
            dram: Dram::new(cfg.dram_min_latency, cfg.dram_cycles_per_line),
            bank_next_free: vec![0; cfg.banks].into_boxed_slice(),
            bank_last_core: vec![u32::MAX; cfg.banks].into_boxed_slice(),
            inflight: InflightPool::new(cfg.shared_mshrs),
            stats: SharedLlcStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SharedLlcConfig {
        &self.cfg
    }

    /// Accumulated contention counters.
    pub fn stats(&self) -> &SharedLlcStats {
        &self.stats
    }

    /// Core-salted tag: numerically equal line addresses on different
    /// cores are different data (disjoint functional memories), so
    /// they must never alias in the shared cache. Workload images live
    /// far below bit 56.
    fn tag(core: u32, la: u64) -> u64 {
        la ^ (u64::from(core) << 56)
    }

    /// Bank of a tagged line address: a SplitMix-style mix over the
    /// line number so identical access patterns on different cores
    /// decorrelate across banks (physical pages would), then reduce
    /// modulo the bank count.
    fn bank_of(&self, tagged: u64) -> usize {
        let mut x = tagged >> self.cfg.l3.line_bytes.trailing_zeros();
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        (x % self.cfg.banks as u64) as usize
    }

    /// Commits `bank`'s single service slot to this request (already
    /// priced at `start`), accounting arbitration stalls and
    /// cross-core bank conflicts.
    fn commit_bank(&mut self, bank: usize, start: u64, arrive: u64, core: u32) {
        let wait = start - arrive;
        if wait > 0 {
            self.stats.arbitration_stall_cycles += wait;
            if self.bank_last_core[bank] != core {
                self.stats.bank_conflicts += 1;
            }
        }
        self.bank_next_free[bank] = start + self.cfg.bank_service_cycles;
        self.bank_last_core[bank] = core;
    }

    /// One shared-LLC access for `core`'s line `la`, arriving at
    /// `arrive` (the core's L1+L2 lookup already charged). Replaces
    /// the private L3-hit and DRAM steps of the per-core hierarchy.
    pub fn access_line(&mut self, core: u32, la: u64, arrive: u64) -> SharedOutcome {
        let tagged = Self::tag(core, la);
        let bank = self.bank_of(tagged);
        let start = arrive.max(self.bank_next_free[bank]);
        if let Some(pos) = self.l3.probe(tagged) {
            self.commit_bank(bank, start, arrive, core);
            self.l3.promote(tagged, pos);
            self.stats.llc_hits += 1;
            return SharedOutcome::Hit { ready_at: start + self.cfg.l3.latency };
        }
        // Shared MSHR pool: expire completed fetches lazily, then
        // claim a slot or reject. A rejected request is turned away at
        // the LLC controller *before* bank scheduling — it must not
        // claim a bank slot, or a retry storm from N cores would
        // advance the bank's busy-until faster than the clock and
        // livelock the chip (every later arrival priced into the far
        // future, the pool never draining).
        self.inflight.expire(arrive);
        if self.inflight.len() >= self.cfg.shared_mshrs {
            self.stats.shared_mshr_rejections += 1;
            return SharedOutcome::Reject;
        }
        self.commit_bank(bank, start, arrive, core);
        self.stats.llc_misses += 1;
        let lookup_done = start + self.cfg.l3.latency;
        let ready_at = self.dram.read_line(lookup_done);
        self.inflight.push(ready_at);
        self.fill(tagged, false);
        SharedOutcome::Miss { ready_at }
    }

    /// Accepts a dirty (or L3-resident) L2 victim evicted from `core`'s
    /// private hierarchy: merge into the resident copy, or install a
    /// dirty line (clean non-resident victims are dropped, as in the
    /// private model). Bookkeeping only — victim traffic rides the
    /// eviction it is part of, so it claims no bank slot.
    pub fn fill_victim(&mut self, core: u32, la: u64, dirty: bool) {
        let tagged = Self::tag(core, la);
        if let Some(pos) = self.l3.probe(tagged) {
            self.l3.promote(tagged, pos).dirty |= dirty;
        } else if dirty {
            self.fill(tagged, true);
        }
    }

    /// Installs `tagged` into the shared L3, writing back a dirty
    /// victim through the shared DRAM channel.
    fn fill(&mut self, tagged: u64, dirty: bool) {
        if let Some(victim) = self.l3.insert(tagged, dirty, None) {
            if victim.dirty {
                self.dram.write_line(0);
                self.stats.dram_writebacks += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_isa::SplitMix64;

    fn tiny() -> SharedLlcConfig {
        SharedLlcConfig {
            // 8 lines of 64 B, 2-way: 4 sets.
            l3: CacheConfig { size_bytes: 512, assoc: 2, line_bytes: 64, latency: 30 },
            dram_min_latency: 200,
            dram_cycles_per_line: 5,
            banks: 4,
            bank_service_cycles: 4,
            shared_mshrs: 2,
        }
    }

    #[test]
    fn hit_after_miss_and_core_salting_prevents_aliasing() {
        let mut llc = SharedLlc::new(tiny());
        assert!(matches!(llc.access_line(0, 0x1000, 0), SharedOutcome::Miss { .. }));
        assert!(matches!(llc.access_line(0, 0x1000, 1000), SharedOutcome::Hit { .. }));
        // The same numeric address on another core is different data.
        assert!(matches!(llc.access_line(1, 0x1000, 2000), SharedOutcome::Miss { .. }));
        assert_eq!(llc.stats().llc_hits, 1);
        assert_eq!(llc.stats().llc_misses, 2);
    }

    #[test]
    fn same_bank_requests_stall_and_cross_core_counts_a_conflict() {
        let mut llc = SharedLlc::new(SharedLlcConfig { banks: 1, shared_mshrs: 16, ..tiny() });
        let SharedOutcome::Miss { ready_at: r0 } = llc.access_line(0, 0x1000, 10) else {
            panic!("miss expected");
        };
        // Same cycle, other core, single bank: served second, 4 cycles
        // of arbitration stall, counted as a cross-core conflict.
        let SharedOutcome::Miss { ready_at: r1 } = llc.access_line(1, 0x2000, 10) else {
            panic!("miss expected");
        };
        assert!(r1 > r0);
        assert_eq!(llc.stats().arbitration_stall_cycles, 4);
        assert_eq!(llc.stats().bank_conflicts, 1);
        // Same core queueing behind itself is a stall, not a conflict.
        llc.access_line(1, 0x3000, 10);
        assert_eq!(llc.stats().bank_conflicts, 1);
        assert!(llc.stats().arbitration_stall_cycles > 4);
    }

    #[test]
    fn shared_mshr_pool_rejects_and_recovers() {
        let mut llc = SharedLlc::new(tiny()); // 2 shared MSHRs
        assert!(matches!(llc.access_line(0, 0x1000, 0), SharedOutcome::Miss { .. }));
        assert!(matches!(llc.access_line(1, 0x2000, 0), SharedOutcome::Miss { .. }));
        assert!(matches!(llc.access_line(2, 0x3000, 0), SharedOutcome::Reject));
        assert_eq!(llc.stats().shared_mshr_rejections, 1);
        // Once the fetches land, capacity frees up.
        assert!(matches!(llc.access_line(2, 0x3000, 5000), SharedOutcome::Miss { .. }));
    }

    #[test]
    fn shared_dram_bandwidth_serializes_cross_core_bursts() {
        let mut llc = SharedLlc::new(SharedLlcConfig { shared_mshrs: 16, ..tiny() });
        // Two cores missing different banks at the same instant still
        // share one DRAM channel: ready times serialize in 5-cycle
        // slots.
        let mut readies = Vec::new();
        for core in 0..2u32 {
            for i in 0..3u64 {
                if let SharedOutcome::Miss { ready_at } =
                    llc.access_line(core, 0x10_000 + i * 4096, 0)
                {
                    readies.push(ready_at);
                }
            }
        }
        readies.sort_unstable();
        for pair in readies.windows(2) {
            assert!(pair[1] >= pair[0] + 5, "line transfers must serialize: {readies:?}");
        }
    }

    #[test]
    fn dirty_victims_write_back_through_shared_dram() {
        let mut llc = SharedLlc::new(SharedLlcConfig { shared_mshrs: 64, ..tiny() });
        llc.fill_victim(0, 0x1000, true);
        // Stream enough lines through the 8-line L3 to evict the dirty
        // one.
        for i in 0..64u64 {
            llc.access_line(0, 0x20_000 + i * 64, i * 1000);
        }
        assert!(llc.stats().dram_writebacks > 0, "dirty line must be written back");
        // A clean non-resident victim is dropped silently.
        let before = llc.stats().dram_writebacks;
        llc.fill_victim(3, 0x9000, false);
        assert_eq!(llc.stats().dram_writebacks, before);
    }

    /// The pool against an always-`retain` reference: seeded arrivals
    /// at nondecreasing times, each expiring, then claiming a slot if
    /// one is free (the `access_line` miss path).
    #[test]
    fn next_ready_pool_matches_always_retain() {
        let mut rng = SplitMix64::new(0x5A5E_D028);
        let cap = 16;
        let mut pool = InflightPool::new(cap);
        let mut reference: Vec<u64> = Vec::new();
        let mut now = 0u64;
        for op in 0..10_000 {
            now += rng.below(30);
            pool.expire(now);
            reference.retain(|&r| r > now);
            assert_eq!(pool.len(), reference.len(), "op {op}: outstanding");
            assert_eq!(
                (pool.len() > 0).then_some(pool.next_ready),
                reference.iter().copied().min(),
                "op {op}: next ready"
            );
            if rng.below(3) > 0 && reference.len() < cap {
                let ready = now + rng.range(1, 400);
                pool.push(ready);
                reference.push(ready);
            }
        }
    }
}
