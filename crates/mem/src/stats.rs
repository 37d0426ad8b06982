//! Memory-system statistics feeding the paper's figures.

use crate::hierarchy::HitLevel;
use crate::Requestor;

/// Where a main-thread access found a runahead-prefetched line — the
/// timeliness metric (the paper's Fig. "Timeliness").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimelinessLevel {
    /// Found in the L1 data cache.
    L1,
    /// Evicted to (or only filled into) L2.
    L2,
    /// Evicted to L3.
    L3,
    /// Still in transfer from memory when the main thread arrived
    /// (merged with the outstanding runahead miss).
    OffChip,
}

/// Counters maintained by [`crate::MemorySystem`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct MemStats {
    /// Main-thread demand load *attempts*: counted before the MSHR-full
    /// check, so a load rejected `k` times and then served counts
    /// `k + 1` (Σ [`MemStats::load_hits`] counts it once).
    pub demand_loads: u64,
    /// Main-thread demand store attempts, counted like
    /// [`MemStats::demand_loads`].
    pub demand_stores: u64,
    /// Main-thread demand loads by the level that served them
    /// (indexed by [`HitLevel`] discriminant: L1, L2, L3, DRAM).
    pub load_hits: [u64; 4],
    /// Demand loads that merged with an already-outstanding miss.
    pub load_merges: u64,

    /// DRAM line reads attributed to each requestor
    /// (Main, Runahead, Stride, IMP).
    pub dram_reads: [u64; 4],
    /// Dirty-line write-backs to DRAM.
    pub dram_writebacks: u64,

    /// Prefetched lines issued per prefetching requestor. Each issue
    /// ends one way: used, evicted unused, or still resident unused
    /// ([`crate::MemorySystem::pf_resident`]); `seal_stats` asserts
    /// `pf_issued == pf_used + pf_evicted_unused + resident`.
    pub pf_issued: [u64; 4],
    /// Prefetched lines later touched by a demand access, per
    /// requestor: at most once per issue, by the touch that takes the
    /// line's owner record.
    pub pf_used: [u64; 4],
    /// Prefetched lines whose owner record left the core's caches
    /// before any demand touch, per requestor: dropped from the last
    /// private level, handed to a chip's shared LLC, or folded into a
    /// lower copy that already had an owner.
    pub pf_evicted_unused: [u64; 4],
    /// Prefetch *attempts* rejected because the MSHR file was full
    /// (or, for a hardware prefetcher, its share of it): a runahead
    /// gather sub-access retried for `k` cycles before it is accepted
    /// counts `k`. A rejected attempt is not an issue, so drops sit
    /// outside the `pf_issued` law.
    pub pf_dropped_mshr: u64,
    /// Prefetches dropped by injected faults (the fault-injection
    /// harness's drop-prefetch chaos; always 0 in normal runs).
    pub pf_dropped_fault: u64,
    /// Prefetches delayed by injected faults (always 0 in normal
    /// runs).
    pub pf_delayed_fault: u64,

    /// Stores issued by a *speculative* requestor (runahead or a
    /// prefetcher). Runahead is architecturally invisible only if its
    /// stores never reach the hierarchy, so the `checked` invariant
    /// layer asserts this counter stays 0.
    pub spec_stores: u64,

    /// Timeliness histogram for runahead-prefetched lines at first
    /// demand touch (L1 / L2 / L3 / off-chip-in-transfer).
    pub timeliness: [u64; 4],
}

impl MemStats {
    /// Index of `req` in the per-requestor counter arrays
    /// (`dram_reads`, `pf_issued`, `pf_used`).
    pub fn req_idx(req: Requestor) -> usize {
        match req {
            Requestor::Main => 0,
            Requestor::Runahead => 1,
            Requestor::Stride => 2,
            Requestor::Imp => 3,
        }
    }

    pub(crate) fn level_idx(level: HitLevel) -> usize {
        match level {
            HitLevel::L1 => 0,
            HitLevel::L2 => 1,
            HitLevel::L3 => 2,
            HitLevel::Dram => 3,
        }
    }

    pub(crate) fn timeliness_idx(level: TimelinessLevel) -> usize {
        match level {
            TimelinessLevel::L1 => 0,
            TimelinessLevel::L2 => 1,
            TimelinessLevel::L3 => 2,
            TimelinessLevel::OffChip => 3,
        }
    }

    /// DRAM reads by `req`.
    pub fn dram_reads_by(&self, req: Requestor) -> u64 {
        self.dram_reads[Self::req_idx(req)]
    }

    /// Total DRAM line reads.
    pub fn dram_reads_total(&self) -> u64 {
        self.dram_reads.iter().sum()
    }

    /// Demand loads served at `level`.
    pub fn loads_served_at(&self, level: HitLevel) -> u64 {
        self.load_hits[Self::level_idx(level)]
    }

    /// LLC misses per kilo-instruction for `instructions` retired
    /// instructions (main-thread demand misses only).
    pub fn llc_mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            return 0.0;
        }
        self.loads_served_at(HitLevel::Dram) as f64 * 1000.0 / instructions as f64
    }

    /// Prefetch accuracy of `req`: used / issued.
    pub fn pf_accuracy(&self, req: Requestor) -> f64 {
        let i = Self::req_idx(req);
        if self.pf_issued[i] == 0 {
            return 0.0;
        }
        self.pf_used[i] as f64 / self.pf_issued[i] as f64
    }

    /// Timeliness fractions (L1, L2, L3, off-chip) over all
    /// runahead-prefetched lines that the main thread touched.
    pub fn timeliness_fractions(&self) -> [f64; 4] {
        let total: u64 = self.timeliness.iter().sum();
        if total == 0 {
            return [0.0; 4];
        }
        self.timeliness.map(|c| c as f64 / total as f64)
    }
}

// The one field list: `delta`, the result store's writer and its
// reader all derive from it, in this order (the stored JSON order).
vr_obs::counters!(MemStats {
    demand_loads,
    demand_stores,
    load_hits,
    load_merges,
    dram_reads,
    dram_writebacks,
    pf_issued,
    pf_used,
    pf_evicted_unused,
    pf_dropped_mshr,
    pf_dropped_fault,
    pf_delayed_fault,
    spec_stores,
    timeliness,
});

#[cfg(test)]
mod tests {
    use super::*;
    use vr_obs::Counters;

    #[test]
    fn mpki_math() {
        let mut s = MemStats::default();
        s.load_hits[MemStats::level_idx(HitLevel::Dram)] = 50;
        assert_eq!(s.llc_mpki(1000), 50.0);
        assert_eq!(s.llc_mpki(0), 0.0);
    }

    #[test]
    fn accuracy_math() {
        let mut s = MemStats::default();
        s.pf_issued[MemStats::req_idx(Requestor::Runahead)] = 10;
        s.pf_used[MemStats::req_idx(Requestor::Runahead)] = 7;
        assert_eq!(s.pf_accuracy(Requestor::Runahead), 0.7);
        assert_eq!(s.pf_accuracy(Requestor::Stride), 0.0);
    }

    #[test]
    fn timeliness_fractions_sum_to_one() {
        let s = MemStats { timeliness: [6, 2, 1, 1], ..Default::default() };
        let f = s.timeliness_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f[0], 0.6);
    }

    #[test]
    fn empty_timeliness_is_all_zero() {
        assert_eq!(MemStats::default().timeliness_fractions(), [0.0; 4]);
    }

    #[test]
    fn delta_of_default_round_trips() {
        let s = MemStats {
            demand_loads: 5,
            demand_stores: 4,
            load_hits: [1, 2, 3, 4],
            load_merges: 9,
            dram_reads: [4, 3, 2, 1],
            dram_writebacks: 8,
            pf_issued: [0, 7, 6, 5],
            pf_used: [0, 5, 4, 3],
            pf_evicted_unused: [0, 1, 2, 1],
            pf_dropped_mshr: 2,
            pf_dropped_fault: 1,
            pf_delayed_fault: 1,
            spec_stores: 1,
            timeliness: [9, 8, 7, 6],
        };
        assert_eq!(s.delta(&MemStats::default()), s, "x - 0 == x");
        assert_eq!(s.delta(&s), MemStats::default(), "x - x == 0");
    }

    #[test]
    fn delta_subtracts_per_field() {
        let a = MemStats { demand_loads: 10, load_hits: [5, 5, 5, 5], ..Default::default() };
        let b = MemStats { demand_loads: 4, load_hits: [1, 2, 3, 4], ..Default::default() };
        let d = a.delta(&b);
        assert_eq!(d.demand_loads, 6);
        assert_eq!(d.load_hits, [4, 3, 2, 1]);
        // Saturating, never wrapping, if counters were ever reset.
        assert_eq!(b.delta(&a).demand_loads, 0);
    }
}
