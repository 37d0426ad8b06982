//! Set-associative cache with LRU replacement.

use crate::Requestor;

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (64 throughout the paper).
    pub line_bytes: u64,
    /// Access latency in cycles, charged on a hit at this level.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two set
    /// count).
    pub fn sets(&self) -> usize {
        let sets = self.size_bytes / (self.assoc as u64 * self.line_bytes);
        assert!(sets.is_power_of_two() && sets > 0, "set count must be a power of two");
        sets as usize
    }
}

/// Per-line bookkeeping. `prefetch_src` remembers who brought the line
/// in; it is consumed by the first demand touch (for prefetch-accuracy
/// and timeliness accounting).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LineState {
    /// Line address (byte address of the first byte in the line).
    pub line_addr: u64,
    /// Needs write-back on eviction.
    pub dirty: bool,
    /// Who filled the line, if it was a prefetch and has not yet been
    /// demand-touched.
    pub prefetch_src: Option<Requestor>,
}

/// One level of set-associative, true-LRU cache.
///
/// The cache tracks *presence* and flags only — data lives in the
/// functional [`vr_isa::Memory`]. Fills happen at lookup time; the
/// in-flight window is modelled by the MSHR file above this level.
///
/// All ways live in one flat `sets × assoc` array (DESIGN.md §12): set
/// `s` is `ways[s·assoc .. (s+1)·assoc]`, MRU first, resident lines
/// before empty ways. An empty way holds `EMPTY`, whose tag no
/// line-aligned address can equal, so a probe scans all `assoc` ways
/// without a length check.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    ways: Box<[LineState]>,
    set_mask: u64,
    line_shift: u32,
}

/// The content of an empty way: its tag has the low bit set, and every
/// probed address is line-aligned (`Cache::new` rejects 1-byte lines).
const EMPTY: LineState = LineState { line_addr: u64::MAX, dirty: false, prefetch_src: None };

impl Cache {
    /// Creates an empty cache; the one way array is its only
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`])
    /// or the line size is not a power of two of at least 2 bytes.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(
            cfg.line_bytes.is_power_of_two() && cfg.line_bytes >= 2,
            "line size must be a power of two of at least 2 bytes"
        );
        let sets = cfg.sets();
        Cache {
            ways: vec![EMPTY; sets * cfg.assoc].into_boxed_slice(),
            set_mask: sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
        }
    }

    /// This level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Converts a byte address to its line address.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// Where `line_addr`'s set lies in `ways`.
    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        let start = ((line_addr >> self.line_shift) & self.set_mask) as usize * self.cfg.assoc;
        start..start + self.cfg.assoc
    }

    /// The ways of `line_addr`'s set, MRU first.
    fn set(&self, line_addr: u64) -> &[LineState] {
        &self.ways[self.set_range(line_addr)]
    }

    fn set_mut(&mut self, line_addr: u64) -> &mut [LineState] {
        let range = self.set_range(line_addr);
        &mut self.ways[range]
    }

    /// Single probe for `addr`: its way position within the set (0 =
    /// MRU), without changing replacement state. Every other lookup
    /// flavour is built on this one scan — `contains` + `lookup` used
    /// to walk the set twice per hit.
    pub fn probe(&self, addr: u64) -> Option<usize> {
        let la = self.line_addr(addr);
        self.set(la).iter().position(|l| l.line_addr == la)
    }

    /// Probes for `addr` without changing replacement state.
    pub fn contains(&self, addr: u64) -> bool {
        self.probe(addr).is_some()
    }

    /// Promotes the line at `pos` (as returned by [`Cache::probe`]) in
    /// `addr`'s set to MRU and returns a mutable reference to it.
    /// One shift of the ways above it — no remove/insert pair moving
    /// the tail twice.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range for the set (a stale probe).
    pub fn promote(&mut self, addr: u64, pos: usize) -> &mut LineState {
        let la = self.line_addr(addr);
        let set = self.set_mut(la);
        let line = set[pos];
        debug_assert_eq!(line.line_addr, la, "stale probe position");
        set.copy_within(..pos, 1);
        set[0] = line;
        &mut set[0]
    }

    /// Looks up `addr`; on a hit, refreshes LRU and returns a mutable
    /// reference to the line's state.
    pub fn lookup(&mut self, addr: u64) -> Option<&mut LineState> {
        let pos = self.probe(addr)?;
        Some(self.promote(addr, pos))
    }

    /// Inserts the line containing `addr` as MRU, evicting the LRU
    /// line of the set if needed. Returns the evicted line, if any.
    ///
    /// If the line is already present it is refreshed instead (its
    /// flags are left untouched) and `None` is returned.
    pub fn fill(&mut self, addr: u64, prefetch_src: Option<Requestor>) -> Option<LineState> {
        if let Some(pos) = self.probe(addr) {
            self.promote(addr, pos);
            return None;
        }
        self.insert(addr, false, prefetch_src)
    }

    /// [`Cache::fill`] for a line the caller has just missed: the
    /// hierarchy fills only lines its own lookup did not find, so it
    /// skips the second probe (and sets `dirty` in place of a third).
    pub(crate) fn insert(
        &mut self,
        addr: u64,
        dirty: bool,
        prefetch_src: Option<Requestor>,
    ) -> Option<LineState> {
        debug_assert!(!self.contains(addr), "insert of a resident line");
        let la = self.line_addr(addr);
        // The last way is the LRU line of a full set, or an empty way:
        // either way it is the one the new line displaces.
        let set = self.set_mut(la);
        let last = set[set.len() - 1];
        set.copy_within(..set.len() - 1, 1);
        set[0] = LineState { line_addr: la, dirty, prefetch_src };
        (last.line_addr != EMPTY.line_addr).then_some(last)
    }

    /// Removes the line containing `addr` (back-invalidation), if
    /// present; returns its state.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineState> {
        let la = self.line_addr(addr);
        let pos = self.probe(la)?;
        let set = self.set_mut(la);
        let line = set[pos];
        set.copy_within(pos + 1.., pos);
        set[set.len() - 1] = EMPTY;
        Some(line)
    }

    /// Number of resident lines (for tests).
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|l| l.line_addr != EMPTY.line_addr).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_isa::SplitMix64;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig { size_bytes: 512, assoc: 2, line_bytes: 64, latency: 1 })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().sets(), 4);
        assert_eq!(c.line_addr(0x7f), 0x40);
    }

    #[test]
    fn fill_then_hit() {
        let mut c = tiny();
        assert!(!c.contains(0x100));
        assert!(c.fill(0x100, None).is_none());
        assert!(c.contains(0x100));
        assert!(c.contains(0x13f)); // same line
        assert!(!c.contains(0x140)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set stride: 4 sets × 64 B ⇒ addresses 0, 256, 512 share set 0.
        c.fill(0, None);
        c.fill(256, None);
        c.lookup(0); // 0 becomes MRU
        let victim = c.fill(512, None).expect("set is full, must evict");
        assert_eq!(victim.line_addr, 256);
        assert!(c.contains(0));
        assert!(c.contains(512));
    }

    #[test]
    fn refill_of_resident_line_keeps_flags_and_evicts_nothing() {
        let mut c = tiny();
        c.fill(0, Some(Requestor::Runahead));
        assert!(c.fill(0, None).is_none());
        assert_eq!(c.lookup(0).unwrap().prefetch_src, Some(Requestor::Runahead));
    }

    #[test]
    fn dirty_bit_travels_with_eviction() {
        let mut c = tiny();
        c.fill(0, None);
        c.lookup(0).unwrap().dirty = true;
        c.fill(256, None);
        let victim = c.fill(512, None).unwrap();
        assert!(victim.dirty, "dirty LRU line must be reported on eviction");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0, None);
        assert!(c.invalidate(0x20).is_some()); // same line as 0
        assert!(!c.contains(0));
        assert!(c.invalidate(0).is_none());
    }

    #[test]
    fn probe_reports_way_position_without_refreshing_lru() {
        let mut c = tiny();
        c.fill(0, None);
        c.fill(256, None); // same set, becomes MRU
        assert_eq!(c.probe(256), Some(0));
        assert_eq!(c.probe(0), Some(1));
        assert_eq!(c.probe(512), None);
        // probe must not have promoted 0: it is still the LRU victim.
        let victim = c.fill(512, None).expect("set full");
        assert_eq!(victim.line_addr, 0);
    }

    #[test]
    fn promote_moves_probed_line_to_mru() {
        let mut c = tiny();
        c.fill(0, None);
        c.fill(256, None);
        let pos = c.probe(0).unwrap();
        assert_eq!(c.promote(0, pos).line_addr, 0);
        assert_eq!(c.probe(0), Some(0), "promoted line is MRU");
        assert_eq!(c.probe(256), Some(1));
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = tiny();
        for i in 0..64u64 {
            c.fill(i * 64, None);
        }
        assert_eq!(c.resident_lines(), 8); // 4 sets × 2 ways
    }

    /// Reference cache: each set is an MRU-first `Vec` of its resident
    /// lines.
    struct VecCache {
        sets: Vec<Vec<LineState>>,
        assoc: usize,
    }

    impl VecCache {
        fn new(cfg: CacheConfig) -> VecCache {
            VecCache { sets: vec![Vec::new(); cfg.sets()], assoc: cfg.assoc }
        }

        fn set(&mut self, la: u64) -> &mut Vec<LineState> {
            let n = self.sets.len() as u64;
            &mut self.sets[((la >> 6) % n) as usize]
        }

        fn probe(&self, la: u64) -> Option<usize> {
            let n = self.sets.len() as u64;
            self.sets[((la >> 6) % n) as usize].iter().position(|l| l.line_addr == la)
        }

        fn promote(&mut self, la: u64, pos: usize) -> &mut LineState {
            let set = self.set(la);
            set[..=pos].rotate_right(1);
            &mut set[0]
        }

        fn fill(&mut self, la: u64, prefetch_src: Option<Requestor>) -> Option<LineState> {
            if let Some(pos) = self.probe(la) {
                self.promote(la, pos);
                return None;
            }
            let assoc = self.assoc;
            let set = self.set(la);
            let victim = if set.len() == assoc { set.pop() } else { None };
            set.insert(0, LineState { line_addr: la, dirty: false, prefetch_src });
            victim
        }

        fn invalidate(&mut self, la: u64) -> Option<LineState> {
            let pos = self.probe(la)?;
            Some(self.set(la).remove(pos))
        }

        fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    /// Seeded `fill`/`insert`/`lookup`/`probe`/`promote`/`invalidate` on
    /// the flat cache and the `Vec`-per-set reference: every return
    /// value, and afterwards every line's probe position and flags, must
    /// agree.
    fn differential(cfg: CacheConfig, seed: u64) {
        let mut flat = Cache::new(cfg);
        let mut reference = VecCache::new(cfg);
        let mut rng = SplitMix64::new(seed);
        // Three lines per way of capacity: sets fill, evict and drain.
        let universe = (cfg.sets() * cfg.assoc * 3) as u64;
        let srcs = [None, Some(Requestor::Runahead), Some(Requestor::Stride)];
        for op in 0..10_000 {
            let la = rng.below(universe) * 64;
            let addr = la + rng.below(64);
            match rng.below(6) {
                0 | 1 => {
                    let src = srcs[rng.below(3) as usize];
                    assert_eq!(
                        flat.fill(addr, src),
                        reference.fill(la, src),
                        "op {op}: fill victim"
                    );
                }
                5 if reference.probe(la).is_none() => {
                    // `insert` is `fill` plus a dirty flag, for a line
                    // known to be absent.
                    let src = srcs[rng.below(3) as usize];
                    let dirty = rng.flip();
                    let want = reference.fill(la, src);
                    reference.promote(la, 0).dirty = dirty;
                    assert_eq!(flat.insert(addr, dirty, src), want, "op {op}: insert victim");
                }
                2 => {
                    let (got, want) = (flat.lookup(addr), reference.probe(la));
                    let want = want.map(|pos| reference.promote(la, pos));
                    assert_eq!(got.as_deref(), want.as_deref(), "op {op}: lookup");
                    // Flip the flags through both handles.
                    if let (Some(g), Some(w)) = (got, want) {
                        g.dirty = !g.dirty;
                        w.dirty = !w.dirty;
                        g.prefetch_src = g.prefetch_src.take().or(Some(Requestor::Imp));
                        w.prefetch_src = w.prefetch_src.take().or(Some(Requestor::Imp));
                    }
                }
                3 => {
                    let pos = flat.probe(addr);
                    assert_eq!(pos, reference.probe(la), "op {op}: probe");
                    if let Some(pos) = pos {
                        assert_eq!(*flat.promote(addr, pos), *reference.promote(la, pos));
                    }
                }
                _ => {
                    assert_eq!(
                        flat.invalidate(addr),
                        reference.invalidate(la),
                        "op {op}: invalidate"
                    );
                }
            }
            assert_eq!(flat.resident_lines(), reference.resident_lines(), "op {op}");
            for line in 0..universe {
                let la = line * 64;
                let pos = flat.probe(la);
                assert_eq!(pos, reference.probe(la), "op {op}: position of {la:#x}");
                if let Some(pos) = pos {
                    let set = &reference.sets[(line % cfg.sets() as u64) as usize];
                    assert_eq!(flat.set(la)[pos], set[pos], "op {op}: flags of {la:#x}");
                }
            }
        }
    }

    #[test]
    fn flat_ways_match_vec_per_set_two_way() {
        // 2-way × 4-set.
        differential(
            CacheConfig { size_bytes: 512, assoc: 2, line_bytes: 64, latency: 1 },
            0xCA5E_0002,
        );
    }

    #[test]
    fn flat_ways_match_vec_per_set_sixteen_way() {
        // 16-way × 4-set, the shared L3's associativity.
        differential(
            CacheConfig { size_bytes: 4096, assoc: 16, line_bytes: 64, latency: 1 },
            0xCA5E_0016,
        );
    }
}
