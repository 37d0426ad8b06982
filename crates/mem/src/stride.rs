//! Stride detection (reference prediction table) and the always-on
//! L1-D stride prefetcher. Vector Runahead has no detector of its own:
//! it reads the prefetcher's 16-entry table.

/// One reference-prediction-table entry: the paper's stride detector
/// stores the load PC, previous address, stride and a 2-bit saturating
/// confidence counter (§"Hardware Overhead": 48 + 48 + 16 + 2 bits per
/// entry).
#[derive(Clone, Copy, Debug)]
pub struct StrideEntry {
    /// PC of the tracked load.
    pub pc: u64,
    /// Address of its most recent access.
    pub last_addr: u64,
    /// Last observed address delta.
    pub stride: i64,
    /// 2-bit saturating confidence (0–3).
    pub confidence: u8,
}

/// Per-PC stride detector / reference prediction table (RPT).
///
/// One table serves both the L1-D stride prefetcher (Table 1's 16
/// streams) and Vector Runahead, which reads the prefetcher's table to
/// find its striding load (`MemorySystem::stride_detector`). It is
/// fully associative and LRU-replaced: a set-indexed table lets loads
/// of one loop body evict each other according to where they sit, and
/// VR then finds no striding load (DESIGN.md §4.1). An entry is
/// *confident* once the same non-zero stride repeats
/// `CONFIDENT_THRESHOLD` times.
#[derive(Clone, Debug)]
pub struct StrideDetector {
    /// MRU first; slots not yet filled hold [`EMPTY`] at the tail.
    entries: Box<[StrideEntry]>,
}

/// An unused slot. PCs are instruction indices, so no real PC can
/// equal `u64::MAX`.
const EMPTY: StrideEntry = StrideEntry { pc: u64::MAX, last_addr: 0, stride: 0, confidence: 0 };

impl StrideDetector {
    /// Confidence level at and above which a stride is trusted.
    pub const CONFIDENT_THRESHOLD: u8 = 2;

    /// Creates a detector with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> StrideDetector {
        assert!(entries > 0, "need at least one entry");
        StrideDetector { entries: vec![EMPTY; entries].into_boxed_slice() }
    }

    /// Trains on one load execution; returns the entry state after
    /// training. The entry moves to the front; a PC not in the table
    /// replaces the LRU entry. Neither allocates.
    pub fn train(&mut self, pc: u64, addr: u64) -> StrideEntry {
        let t = &mut self.entries;
        let (pos, e) = match t.iter().position(|e| e.pc == pc) {
            Some(pos) => {
                let mut e = t[pos];
                let stride = addr.wrapping_sub(e.last_addr) as i64;
                if stride == e.stride && stride != 0 {
                    e.confidence = (e.confidence + 1).min(3);
                } else {
                    e.stride = stride;
                    e.confidence = 0;
                }
                e.last_addr = addr;
                (pos, e)
            }
            None => (t.len() - 1, StrideEntry { pc, last_addr: addr, stride: 0, confidence: 0 }),
        };
        // A memmove, not `rotate_right`, which moves short slices one
        // element at a time (DESIGN.md §12).
        t.copy_within(..pos, 1);
        t[0] = e;
        e
    }

    /// The confident stride for the load at `pc`, if any.
    pub fn confident_stride(&self, pc: u64) -> Option<i64> {
        match self.entry(pc) {
            Some(e) if e.confidence >= Self::CONFIDENT_THRESHOLD && e.stride != 0 => Some(e.stride),
            _ => None,
        }
    }

    /// The full entry for `pc`, if tracked.
    pub fn entry(&self, pc: u64) -> Option<&StrideEntry> {
        self.entries.iter().find(|e| e.pc == pc)
    }

    /// Storage cost in bits (for the hardware-overhead table): per
    /// entry 48-bit PC + 48-bit address + 16-bit stride + 2-bit
    /// confidence + 1 innermost bit.
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * (48 + 48 + 16 + 2 + 1)
    }
}

/// The always-on hardware stride prefetcher at the L1-D level
/// ("stride prefetcher (16 streams)" in Table 1).
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    detector: StrideDetector,
    /// How many strides ahead of the current access to prefetch.
    pub degree: u64,
    /// Lookahead distance (in strides) of the first prefetch.
    pub distance: u64,
}

impl StridePrefetcher {
    /// Creates a prefetcher with `streams` tracked PCs.
    pub fn new(streams: usize, degree: u64, distance: u64) -> StridePrefetcher {
        StridePrefetcher { detector: StrideDetector::new(streams), degree, distance }
    }

    /// The Table 1 configuration: 16 streams, degree 4, distance 16.
    pub fn table1() -> StridePrefetcher {
        StridePrefetcher::new(16, 4, 16)
    }

    /// Trains on a demand load and returns the byte addresses to
    /// prefetch (empty while confidence is still building).
    ///
    /// The addresses come back as a [`PrefetchAddrs`] value iterator —
    /// a `Copy` struct, not a `Vec` — because this runs once per
    /// committed load on the simulator hot path and must not allocate
    /// (DESIGN.md §12). Address order is unchanged: `distance`,
    /// `distance+1`, …, `distance+degree-1` strides ahead.
    pub fn train(&mut self, pc: u64, addr: u64) -> PrefetchAddrs {
        let e = self.detector.train(pc, addr);
        if e.confidence < StrideDetector::CONFIDENT_THRESHOLD || e.stride == 0 {
            return PrefetchAddrs { addr, stride: 0, k: 0, end: 0 };
        }
        PrefetchAddrs { addr, stride: e.stride, k: self.distance, end: self.distance + self.degree }
    }

    /// The underlying stride detector.
    pub fn detector(&self) -> &StrideDetector {
        &self.detector
    }
}

/// Allocation-free value iterator over the prefetch addresses produced
/// by one [`StridePrefetcher::train`] call: `addr + stride·k` for
/// `k ∈ [distance, distance+degree)`. Wrapping arithmetic matches the
/// historical `Vec`-collecting implementation exactly.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchAddrs {
    addr: u64,
    stride: i64,
    k: u64,
    end: u64,
}

impl PrefetchAddrs {
    /// Whether no prefetches will be issued (confidence still
    /// building, or zero stride).
    pub fn is_empty(&self) -> bool {
        self.k >= self.end
    }
}

impl Iterator for PrefetchAddrs {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.k >= self.end {
            return None;
        }
        let a = self.addr.wrapping_add((self.stride as u64).wrapping_mul(self.k));
        self.k += 1;
        Some(a)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.k) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PrefetchAddrs {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_a_regular_stride() {
        let mut d = StrideDetector::new(32);
        for i in 0..4u64 {
            d.train(0x10, 0x1000 + i * 8);
        }
        assert_eq!(d.confident_stride(0x10), Some(8));
        let e = d.entry(0x10).unwrap();
        assert_eq!(e.stride, 8);
        assert!(e.confidence >= 2);
    }

    #[test]
    fn irregular_addresses_never_become_confident() {
        let mut d = StrideDetector::new(32);
        for a in [100u64, 900, 300, 5000, 17] {
            d.train(0x10, a);
        }
        assert_eq!(d.confident_stride(0x10), None);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut d = StrideDetector::new(32);
        for i in 0..4u64 {
            d.train(0x10, 0x1000 + i * 8);
        }
        assert!(d.confident_stride(0x10).is_some());
        d.train(0x10, 0x9000);
        assert_eq!(d.confident_stride(0x10), None);
    }

    #[test]
    fn negative_strides_are_detected() {
        let mut d = StrideDetector::new(32);
        for i in 0..4u64 {
            d.train(0x10, 0x8000 - i * 16);
        }
        assert_eq!(d.confident_stride(0x10), Some(-16));
    }

    #[test]
    fn one_pc_past_capacity_evicts_exactly_the_lru_one() {
        let mut d = StrideDetector::new(16);
        for pc in 0..16u64 {
            d.train(pc, 0x1000 * pc);
        }
        d.train(0, 0x8); // refresh pc 0: pc 1 is now LRU
        d.train(16, 0x10_0000);
        assert!(d.entry(1).is_none(), "pc 1 was LRU and must be evicted");
        for pc in (0..=16u64).filter(|&pc| pc != 1) {
            assert!(d.entry(pc).is_some(), "pc {pc} must survive");
        }
    }

    #[test]
    fn three_pcs_of_one_old_set_all_become_confident() {
        // 0, 9 and 18 all mapped to set 0 of the retired 8-set, 2-way
        // folded-XOR index ((pc >> 3) ^ pc) & 7, where trained in turn
        // they evicted each other before any became confident.
        let mut d = StrideDetector::new(16);
        for i in 0..8u64 {
            d.train(0, 0x1000 + i * 8);
            d.train(9, 0x9000 + i * 64);
            d.train(18, 0x20_0000 - i * 16);
        }
        assert_eq!(d.confident_stride(0), Some(8));
        assert_eq!(d.confident_stride(9), Some(64));
        assert_eq!(d.confident_stride(18), Some(-16));
    }

    #[test]
    fn zero_stride_is_not_confident() {
        let mut d = StrideDetector::new(32);
        for _ in 0..8 {
            d.train(0x10, 0x1000);
        }
        assert_eq!(d.confident_stride(0x10), None);
    }

    #[test]
    fn prefetcher_emits_degree_addresses_at_distance() {
        let mut p = StridePrefetcher::new(16, 4, 4);
        let mut out = Vec::new();
        for i in 0..6u64 {
            out = p.train(0x10, 0x1000 + i * 64).collect();
        }
        // Last access at 0x1000 + 5·64 = 0x1140; distance 4, degree 4.
        assert_eq!(out, vec![0x1140 + 4 * 64, 0x1140 + 5 * 64, 0x1140 + 6 * 64, 0x1140 + 7 * 64]);
    }

    #[test]
    fn prefetcher_silent_before_confidence() {
        let mut p = StridePrefetcher::table1();
        assert!(p.train(0x10, 0x1000).is_empty());
        assert!(p.train(0x10, 0x1040).is_empty());
    }

    #[test]
    fn storage_accounting_matches_paper_per_entry_cost() {
        let d = StrideDetector::new(32);
        assert_eq!(d.storage_bits(), 32 * 115);
        // The paper rounds this to 460 bytes for 32 entries.
        assert_eq!(d.storage_bits() / 8, 460);
    }
}
