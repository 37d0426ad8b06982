//! Granule-based speculative store overlay.
//!
//! [`StoreOverlay`] is the "runahead cache" of the Vector Runahead
//! paper: speculative stores land here instead of in [`Memory`], and
//! later speculative loads observe them (store-to-load forwarding
//! inside the runahead interval).
//!
//! # Why not a byte map?
//!
//! The original implementation was a `HashMap<u64, u8>` keyed by byte
//! address: one hash probe per stored byte, one per loaded byte, a
//! rehash whenever the map grew, and an O(len) `clear()`. Every vector
//! lane clears (and used to clone) an overlay per episode, so the
//! overlay sat squarely on the simulator's hot path.
//!
//! This version stores 8-byte *granules* in an open-addressed table:
//!
//! - key = `addr >> 3` (the granule index), probed with a Fibonacci
//!   multiplicative hash and linear probing;
//! - each slot holds 8 data bytes plus a byte-valid `mask`, so an
//!   aligned 8-byte store or load touches exactly one slot;
//! - a *generation counter* stamps slots: a slot is live only when its
//!   `gen` matches the table's. [`StoreOverlay::clear`] just bumps the
//!   generation — O(1), no memory traffic — and capacity is retained
//!   across episodes, so steady-state use never allocates;
//! - entries are never individually deleted (only bulk-cleared), which
//!   keeps linear probing correct without tombstones.
//!
//! # Semantics
//!
//! Byte-exact with the old map: a store overlays `size` bytes of the
//! little-endian `value` starting at `addr` (per-byte wrapping
//! addresses, exactly like the old loop); a load reads each byte from
//! the overlay if overlaid, else from backing memory; [`len`] counts
//! *overlaid bytes* (not granules), matching `HashMap::len` of the old
//! representation. `crates/isa/tests/overlay_diff.rs` checks this
//! byte-for-byte against a reference byte-map model over randomized
//! mixed-width, overlapping, granule-straddling sequences.
//!
//! [`len`]: StoreOverlay::len

use crate::mem::Memory;

/// One open-addressed table slot: an 8-byte granule with a byte-valid
/// mask and a generation stamp. `gen != table.gen` means "free".
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Granule index (`addr >> 3`).
    key: u64,
    /// The 8 data bytes of the granule (only `mask` bits are valid).
    data: [u8; 8],
    /// Bit `b` set ⇒ byte `b` of the granule is overlaid.
    mask: u8,
    /// Generation stamp; live iff equal to the table's generation.
    gen: u32,
}

const EMPTY: Slot = Slot { key: 0, data: [0; 8], mask: 0, gen: 0 };

/// Initial table capacity (slots). Must be a power of two.
const INITIAL_CAP: usize = 64;

/// Byte-granular (granule-backed) store buffer used by speculative
/// stepping: the paper's "runahead cache". Speculative stores land
/// here instead of in [`Memory`], and later speculative loads observe
/// them.
#[derive(Clone, Debug)]
pub struct StoreOverlay {
    slots: Vec<Slot>,
    /// Power-of-two slot count minus one (probe mask).
    cap_mask: usize,
    /// Current generation; slots with a different stamp are free.
    gen: u32,
    /// Distinct granules live this generation (for the load factor).
    live_slots: usize,
    /// Distinct overlaid bytes live this generation ([`Self::len`]).
    live_bytes: usize,
}

impl Default for StoreOverlay {
    fn default() -> StoreOverlay {
        StoreOverlay::new()
    }
}

/// Fibonacci multiplicative hash of a granule index, reduced to a
/// table slot. Granule keys are usually small sequential integers;
/// multiplying by 2^64/φ spreads them across the high bits.
#[inline]
fn slot_of(key: u64, cap_mask: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & cap_mask
}

impl StoreOverlay {
    /// Creates an empty overlay.
    pub fn new() -> StoreOverlay {
        StoreOverlay {
            slots: vec![EMPTY; INITIAL_CAP],
            cap_mask: INITIAL_CAP - 1,
            // Start at 1 so freshly zeroed slots are not live.
            gen: 1,
            live_slots: 0,
            live_bytes: 0,
        }
    }

    /// Number of overlaid bytes (distinct byte addresses stored this
    /// generation), matching the old byte-map `len()`.
    pub fn len(&self) -> usize {
        self.live_bytes
    }

    /// Whether the overlay holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.live_bytes == 0
    }

    /// Discards all overlaid bytes in O(1) by bumping the generation.
    /// Capacity is retained, so subsequent stores reuse the table
    /// without allocating.
    pub fn clear(&mut self) {
        if self.gen == u32::MAX {
            // Generation wrap: physically wipe once every 2^32 - 1
            // clears so stale stamps can never collide with a reused
            // generation.
            self.slots.fill(EMPTY);
            self.gen = 0;
        }
        self.gen += 1;
        self.live_slots = 0;
        self.live_bytes = 0;
    }

    /// Replaces `self`'s contents with a copy of `other`, reusing
    /// `self`'s capacity — the allocation-free replacement for
    /// `*self = other.clone()` on the episode hot path.
    pub fn copy_from(&mut self, other: &StoreOverlay) {
        self.clear();
        for s in &other.slots {
            if s.gen == other.gen && s.mask != 0 {
                self.slot_store(s.key, s.mask, s.data);
            }
        }
    }

    /// Folds `other`'s overlaid bytes into `self` *without* clearing:
    /// where both overlays cover a byte, `other` wins. Equivalent to
    /// replaying every store captured in `other` on top of `self` —
    /// the commit step of a layered (base + per-lane delta) overlay
    /// scheme, where a surviving lane's delta is merged back into the
    /// shared base instead of the base being rebuilt from a full
    /// per-lane copy.
    pub fn merge_from(&mut self, other: &StoreOverlay) {
        for s in &other.slots {
            if s.gen == other.gen && s.mask != 0 {
                self.slot_store(s.key, s.mask, s.data);
            }
        }
    }

    /// The live `(mask, data)` of granule `addr >> 3`, or `(0, ..)`
    /// when the granule is not overlaid. One probe per *granule* — the
    /// batched lookup primitive behind [`Self::load_layered`]: callers
    /// sweeping K lanes resolve each lane's granule with single-probe
    /// calls instead of per-byte probing.
    #[inline]
    pub fn probe_granule(&self, addr: u64) -> (u8, [u8; 8]) {
        match self.probe_find(addr >> 3) {
            Some(s) => (s.mask, s.data),
            None => (0, [0; 8]),
        }
    }

    /// Layered load: `size` bytes at `addr` where `self` is a sparse
    /// *delta* overlay stacked on a shared `base` overlay stacked on
    /// backing memory. Per byte: the delta wins, then the base, then
    /// `mem` — byte-exact with first merging `base` into a copy of
    /// `self`'s underlay and loading from the merged overlay, but with
    /// one probe per granule per layer and no copy.
    pub fn load_layered(&self, base: &StoreOverlay, mem: &Memory, addr: u64, size: u64) -> u64 {
        let off = (addr & 7) as usize;
        if off + size as usize <= 8 {
            // Single-granule access (every naturally aligned load):
            // two probes decide the whole window at once.
            let window = (((1u16 << size) - 1) as u8) << off;
            let (dmask, ddata) = self.probe_granule(addr);
            let (bmask, bdata) = base.probe_granule(addr);
            if (dmask | bmask) & window == 0 {
                // No overlaid byte in range: one backing-memory read
                // instead of a per-byte fallback loop.
                return mem.read(addr, size);
            }
            if dmask & window == window {
                // The delta covers the whole window.
                let mut out = [0u8; 8];
                out[..size as usize].copy_from_slice(&ddata[off..off + size as usize]);
                return u64::from_le_bytes(out);
            }
            let mut out = [0u8; 8];
            for k in 0..size as usize {
                let bit = 1u8 << (off + k);
                out[k] = if dmask & bit != 0 {
                    ddata[off + k]
                } else if bmask & bit != 0 {
                    bdata[off + k]
                } else {
                    (mem.read(addr.wrapping_add(k as u64), 1) & 0xff) as u8
                };
            }
            return u64::from_le_bytes(out);
        }
        let mut out = [0u8; 8];
        let size = size as usize;
        let mut i = 0;
        while i < size {
            let a = addr.wrapping_add(i as u64);
            let off = (a & 7) as usize;
            let n = (8 - off).min(size - i);
            let (dmask, ddata) = self.probe_granule(a);
            let (bmask, bdata) = base.probe_granule(a);
            for k in 0..n {
                let bit = 1u8 << (off + k);
                out[i + k] = if dmask & bit != 0 {
                    ddata[off + k]
                } else if bmask & bit != 0 {
                    bdata[off + k]
                } else {
                    (mem.read(a.wrapping_add(k as u64), 1) & 0xff) as u8
                };
            }
            i += n;
        }
        u64::from_le_bytes(out)
    }

    /// Finds the live slot for `key`, if any.
    #[inline]
    fn probe_find(&self, key: u64) -> Option<&Slot> {
        let mut i = slot_of(key, self.cap_mask);
        loop {
            let s = &self.slots[i];
            if s.gen != self.gen {
                return None; // free slot terminates the probe chain
            }
            if s.key == key {
                return Some(s);
            }
            i = (i + 1) & self.cap_mask;
        }
    }

    /// Merges `mask`-selected bytes of `data` into the granule `key`,
    /// inserting the granule if absent and growing the table if the
    /// load factor would exceed 3/4.
    fn slot_store(&mut self, key: u64, mask: u8, data: [u8; 8]) {
        if (self.live_slots + 1) * 4 > (self.cap_mask + 1) * 3 {
            self.grow();
        }
        let mut i = slot_of(key, self.cap_mask);
        loop {
            let s = &mut self.slots[i];
            if s.gen != self.gen {
                // Claim a free slot.
                *s = Slot { key, data, mask, gen: self.gen };
                self.live_slots += 1;
                self.live_bytes += mask.count_ones() as usize;
                return;
            }
            if s.key == key {
                self.live_bytes += (mask & !s.mask).count_ones() as usize;
                s.mask |= mask;
                for (b, &d) in data.iter().enumerate() {
                    if mask & (1 << b) != 0 {
                        s.data[b] = d;
                    }
                }
                return;
            }
            i = (i + 1) & self.cap_mask;
        }
    }

    /// Doubles the table, re-inserting live slots. Amortized into the
    /// warmup phase: once an overlay has seen its working set the
    /// table never grows again (capacity survives [`clear`]).
    ///
    /// [`clear`]: StoreOverlay::clear
    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.cap_mask + 1) * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap]);
        self.cap_mask = new_cap - 1;
        let gen = self.gen;
        for s in old {
            if s.gen == gen && s.mask != 0 {
                // Re-insert without the occupancy check (the new table
                // is at most 3/8 full) and without touching the byte
                // count (keys are unique in the old table).
                let mut i = slot_of(s.key, self.cap_mask);
                while self.slots[i].gen == gen {
                    i = (i + 1) & self.cap_mask;
                }
                self.slots[i] = s;
            }
        }
    }

    /// Overlays `size` bytes of the little-endian `value` at `addr`
    /// (per-byte wrapping addressing, byte-exact with the historical
    /// byte-map implementation).
    pub fn store(&mut self, addr: u64, size: u64, value: u64) {
        let le = value.to_le_bytes();
        let size = size as usize;
        let mut i = 0;
        while i < size {
            let a = addr.wrapping_add(i as u64);
            let off = (a & 7) as usize;
            let n = (8 - off).min(size - i);
            let mut data = [0u8; 8];
            let mut mask = 0u8;
            for k in 0..n {
                data[off + k] = le[i + k];
                mask |= 1 << (off + k);
            }
            self.slot_store(a >> 3, mask, data);
            i += n;
        }
    }

    /// Loads `size` bytes at `addr`: overlaid bytes come from the
    /// overlay, the rest from `mem` (one byte at a time, exactly like
    /// the historical implementation).
    pub fn load(&self, mem: &Memory, addr: u64, size: u64) -> u64 {
        let mut out = [0u8; 8];
        let size = size as usize;
        let mut i = 0;
        while i < size {
            let a = addr.wrapping_add(i as u64);
            let off = (a & 7) as usize;
            let n = (8 - off).min(size - i);
            let slot = self.probe_find(a >> 3);
            for k in 0..n {
                out[i + k] = match slot {
                    Some(s) if s.mask & (1 << (off + k)) != 0 => s.data[off + k],
                    _ => (mem.read(a.wrapping_add(k as u64), 1) & 0xff) as u8,
                };
            }
            i += n;
        }
        u64::from_le_bytes(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_then_load_roundtrip() {
        let mem = Memory::new();
        let mut ov = StoreOverlay::new();
        ov.store(0x1000, 8, 0x1122_3344_5566_7788);
        assert_eq!(ov.load(&mem, 0x1000, 8), 0x1122_3344_5566_7788);
        assert_eq!(ov.len(), 8);
    }

    #[test]
    fn straddle_and_partial_overlap() {
        let mut mem = Memory::new();
        mem.write(0x0ff8, 8, 0xAAAA_AAAA_AAAA_AAAA);
        mem.write(0x1000, 8, 0xBBBB_BBBB_BBBB_BBBB);
        let mut ov = StoreOverlay::new();
        // 4-byte store straddling the 0x1000 granule boundary.
        ov.store(0x0ffe, 4, 0x1234_5678);
        assert_eq!(ov.len(), 4);
        assert_eq!(ov.load(&mem, 0x0ffe, 4), 0x1234_5678);
        // Bytes outside the overlay come from memory.
        assert_eq!(ov.load(&mem, 0x0ffc, 2), 0xAAAA);
        assert_eq!(ov.load(&mem, 0x1002, 2), 0xBBBB);
        // Mixed: one overlaid byte, one memory byte.
        assert_eq!(ov.load(&mem, 0x1001, 2), 0xBB12);
    }

    #[test]
    fn clear_is_logical_and_capacity_is_reused() {
        let mem = Memory::new();
        let mut ov = StoreOverlay::new();
        for i in 0..1000u64 {
            ov.store(0x2000 + i * 8, 8, i);
        }
        let cap = ov.slots.len();
        ov.clear();
        assert!(ov.is_empty());
        assert_eq!(ov.len(), 0);
        assert_eq!(ov.load(&mem, 0x2000, 8), 0, "cleared bytes read memory");
        for i in 0..1000u64 {
            ov.store(0x2000 + i * 8, 8, i + 7);
        }
        assert_eq!(ov.slots.len(), cap, "clear must retain capacity");
        assert_eq!(ov.load(&mem, 0x2010, 8), 9);
    }

    #[test]
    fn copy_from_matches_clone() {
        let mem = Memory::new();
        let mut src = StoreOverlay::new();
        for i in 0..100u64 {
            src.store(0x40 + i * 3, 2, i * 0x101);
        }
        let mut dst = StoreOverlay::new();
        dst.store(0x9999, 8, u64::MAX); // pre-existing junk
        dst.copy_from(&src);
        assert_eq!(dst.len(), src.len());
        for i in 0..100u64 {
            let a = 0x40 + i * 3;
            assert_eq!(dst.load(&mem, a, 2), src.load(&mem, a, 2));
        }
        assert_eq!(dst.load(&mem, 0x9999, 8), 0, "junk must not survive");
    }

    #[test]
    fn wrapping_addresses() {
        let mem = Memory::new();
        let mut ov = StoreOverlay::new();
        ov.store(u64::MAX, 2, 0xBEEF);
        assert_eq!(ov.len(), 2);
        assert_eq!(ov.load(&mem, u64::MAX, 1), 0xEF);
        assert_eq!(ov.load(&mem, 0, 1), 0xBE);
        assert_eq!(ov.load(&mem, u64::MAX, 2), 0xBEEF);
    }
}
