//! Miss-status holding registers.

use crate::Requestor;

#[derive(Clone, Copy, Debug)]
struct Entry {
    line_addr: u64,
    ready_at: u64,
    requestor: Requestor,
}

/// The L1-D MSHR file: at most `capacity` distinct lines may be
/// outstanding; additional misses to an already-outstanding line merge
/// for free. This is the structure that caps memory-level parallelism
/// (24 entries per Table 1) and that Vector Runahead's vectorized
/// gathers try to keep full.
///
/// Stored as a flat vector searched linearly: at ≤ a few dozen entries
/// a scan over contiguous `Copy` records beats hashing the address on
/// every probe (this is the hottest lookup in the hierarchy — every
/// access expires and probes the file). Expiry is next-ready: the
/// earliest `ready_at` is cached, so an `expire` before it is one
/// compare instead of a pass over the file (DESIGN.md §12).
#[derive(Clone, Debug)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<Entry>,
    /// Earliest `ready_at` over `entries` (`u64::MAX` when empty):
    /// lowered on allocate, recomputed after each retain.
    next_ready: u64,
    /// Σ (ready − alloc) over all allocations; occupancy integral for
    /// the MLP figure.
    occupancy_integral: u64,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            next_ready: u64::MAX,
            occupancy_integral: 0,
        }
    }

    fn find(&self, line_addr: u64) -> Option<&Entry> {
        self.entries.iter().find(|e| e.line_addr == line_addr)
    }

    /// Releases entries whose fills have completed by `now`. Before
    /// the earliest `ready_at` no entry can go, so the file is not
    /// scanned.
    pub fn expire(&mut self, now: u64) {
        if now < self.next_ready {
            return;
        }
        self.entries.retain(|e| e.ready_at > now);
        self.next_ready = self.entries.iter().map(|e| e.ready_at).min().unwrap_or(u64::MAX);
    }

    /// The ready cycle of `line_addr`'s outstanding miss, if any (a
    /// secondary miss merges with it).
    pub fn pending(&self, line_addr: u64) -> Option<u64> {
        self.find(line_addr).map(|e| e.ready_at)
    }

    /// Attempts to allocate an entry for `line_addr`, resolving at
    /// `ready_at`. Returns `false` if the file is full.
    pub fn allocate(&mut self, line_addr: u64, now: u64, ready_at: u64, req: Requestor) -> bool {
        if self.entries.len() >= self.capacity {
            return false;
        }
        debug_assert!(self.pending(line_addr).is_none(), "duplicate MSHR allocation");
        self.entries.push(Entry { line_addr, ready_at, requestor: req });
        self.next_ready = self.next_ready.min(ready_at);
        self.occupancy_integral += ready_at.saturating_sub(now);
        true
    }

    /// Requestor that allocated the outstanding entry for `line_addr`.
    pub fn requestor_of(&self, line_addr: u64) -> Option<Requestor> {
        self.find(line_addr).map(|e| e.requestor)
    }

    /// Number of currently outstanding entries (call [`MshrFile::expire`]
    /// first for an up-to-date answer).
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Whether the file has a free entry.
    pub fn has_free(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// The first cycle `>= now` at which the file has a free entry,
    /// without expiring anything: `now` unless every entry is still
    /// outstanding at `now`, else the earliest `ready_at` (the cycle an
    /// [`MshrFile::expire`] releases it).
    pub fn free_at(&self, now: u64) -> u64 {
        if self.has_free() || self.next_ready <= now {
            now
        } else {
            self.next_ready
        }
    }

    /// Σ over all allocations of their in-flight duration, in cycles.
    /// Dividing by elapsed cycles yields average outstanding misses
    /// (the MLP metric).
    pub fn occupancy_integral(&self) -> u64 {
        self.occupancy_integral
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_isa::SplitMix64;

    #[test]
    fn allocate_until_full_then_reject() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate(0x00, 0, 100, Requestor::Main));
        assert!(m.allocate(0x40, 0, 100, Requestor::Main));
        assert!(!m.allocate(0x80, 0, 100, Requestor::Main));
        assert!(!m.has_free());
        assert_eq!(m.outstanding(), 2);
    }

    #[test]
    fn free_at_is_the_first_cycle_an_expire_frees_an_entry() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.free_at(5), 5, "empty");
        m.allocate(0x00, 0, 100, Requestor::Main);
        assert_eq!(m.free_at(5), 5, "one entry left");
        m.allocate(0x40, 0, 80, Requestor::Main);
        assert_eq!(m.free_at(5), 80);
        assert_eq!(m.free_at(79), 80);
        assert_eq!(m.free_at(80), 80, "not expired yet, but expire(80) frees it");
        m.expire(79);
        assert!(!m.has_free());
        m.expire(80);
        assert!(m.has_free());
    }

    #[test]
    fn expire_frees_entries() {
        let mut m = MshrFile::new(1);
        m.allocate(0x00, 0, 100, Requestor::Main);
        m.expire(99);
        assert_eq!(m.outstanding(), 1);
        m.expire(100);
        assert_eq!(m.outstanding(), 0);
        assert!(m.has_free());
    }

    #[test]
    fn merge_returns_pending_ready_time() {
        let mut m = MshrFile::new(4);
        m.allocate(0x40, 0, 250, Requestor::Runahead);
        assert_eq!(m.pending(0x40), Some(250));
        assert_eq!(m.pending(0x80), None);
        assert_eq!(m.requestor_of(0x40), Some(Requestor::Runahead));
    }

    #[test]
    fn occupancy_integral_accumulates_durations() {
        let mut m = MshrFile::new(4);
        m.allocate(0x00, 10, 210, Requestor::Main); // 200 cycles
        m.allocate(0x40, 20, 120, Requestor::Main); // 100 cycles
        assert_eq!(m.occupancy_integral(), 300);
    }

    /// Reference file: every `expire` is a `retain` and the earliest
    /// ready time a scan.
    struct AlwaysRetain {
        capacity: usize,
        entries: Vec<(u64, u64)>,
    }

    impl AlwaysRetain {
        fn expire(&mut self, now: u64) {
            self.entries.retain(|&(_, ready)| ready > now);
        }

        fn pending(&self, la: u64) -> Option<u64> {
            self.entries.iter().find(|e| e.0 == la).map(|e| e.1)
        }

        fn allocate(&mut self, la: u64, ready_at: u64) -> bool {
            if self.entries.len() >= self.capacity {
                return false;
            }
            self.entries.push((la, ready_at));
            true
        }
    }

    #[test]
    fn next_ready_expiry_matches_always_retain() {
        let mut rng = SplitMix64::new(0x5A5E_0028);
        let mut m = MshrFile::new(8);
        let mut r = AlwaysRetain { capacity: 8, entries: Vec::new() };
        let mut now = 0u64;
        for op in 0..10_000 {
            now += rng.below(40);
            let la = rng.below(32) * 64;
            match rng.below(5) {
                0 | 1 => {
                    // Callers expire before they allocate, and never
                    // allocate a line already outstanding.
                    m.expire(now);
                    r.expire(now);
                    if r.pending(la).is_none() {
                        let ready = now + rng.range(1, 300);
                        assert_eq!(
                            m.allocate(la, now, ready, Requestor::Main),
                            r.allocate(la, ready),
                            "op {op}: allocate"
                        );
                    }
                }
                2 => {
                    m.expire(now);
                    r.expire(now);
                }
                3 => {
                    assert_eq!(m.pending(la), r.pending(la), "op {op}: pending");
                    let live: Vec<u64> =
                        r.entries.iter().map(|e| e.1).filter(|&ready| ready > now).collect();
                    let free = if live.len() < r.capacity {
                        now
                    } else {
                        live.iter().copied().min().expect("full")
                    };
                    assert_eq!(m.free_at(now), free, "op {op}: free_at");
                }
                _ => assert_eq!(
                    (m.outstanding() > 0).then_some(m.next_ready),
                    r.entries.iter().map(|e| e.1).min(),
                    "op {op}: next ready"
                ),
            }
            assert_eq!(m.outstanding(), r.entries.len(), "op {op}: outstanding");
        }
    }
}
