//! Sparse byte-addressed memory.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::prng::mix64;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Pages per chunk (2 MiB of address space per chunk).
const CHUNK_BITS: u64 = 9;
const CHUNK_PAGES: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: u64 = (CHUNK_PAGES as u64) - 1;

type Page = [u8; PAGE_SIZE];

/// A 2 MiB-aligned span of the address space: 512 optional 4 KiB
/// pages. Chunks are kept in a sorted vector (a flat two-level radix
/// index): within a chunk, page lookup is a direct array index; across
/// chunks, a binary search — accelerated by a last-chunk hint, since
/// the simulator's access stream is overwhelmingly chunk-local.
///
/// Both levels sit behind an `Arc`, so the derived `Clone` is one
/// count bump and the clone shares the table and, through it, every
/// page. Only `Memory::page_mut` takes either level mutably, through
/// `Arc::make_mut`: the value in place when this memory is its only
/// holder, a private copy when it is not — so uniqueness is what the
/// standard library's counts say, and nothing here needs `unsafe`.
/// Two levels because an `Arc` around the whole chunk would make a
/// first store copy 2 MiB, and `Arc`s on the pages alone would make
/// `Clone` visit every page.
#[derive(Clone, Debug)]
struct Chunk {
    idx: u64,
    pages: Arc<[Option<Arc<Page>>]>,
}

impl Chunk {
    fn new(idx: u64) -> Chunk {
        Chunk { idx, pages: vec![None; CHUNK_PAGES].into() }
    }
}

/// Direct-mapped chunk-position hint slots. A workload's hot data
/// structures live in a handful of distinct chunks accessed in an
/// interleaved pattern (offsets / neighbours / frontier / visited in
/// BFS), so a single last-chunk hint thrashes; a small direct-mapped
/// cache keyed on the low chunk bits keeps each region's position
/// warm.
const HINT_SLOTS: usize = 16;

/// A sparse, paged, little-endian, 64-bit byte-addressed memory.
///
/// Reads of unmapped pages return zero without allocating — this
/// matters for the speculative runahead engines, which may compute
/// wild addresses and must be able to "access" them harmlessly (the
/// real hardware would simply fetch a garbage line). Writes allocate
/// the containing 4 KiB page on demand.
///
/// Internally a sorted vector of 2 MiB chunks with a direct-mapped
/// chunk-position hint cache (atomics, so shared `&Memory` lookups
/// stay `Sync` for parallel sweep runners) — replacing a per-access
/// `HashMap` hash+probe with an array index on the hot path.
///
/// # Cloning is copy-on-write
///
/// [`Clone`] is the only copy operation and copies no page: one count
/// bump per 2 MiB chunk (about 500 for a 1 GB image), after which the
/// two memories share every page. Reads never copy. The first write
/// through either side to a page both still hold copies that page
/// (4 KiB, plus once per chunk its 512-entry table) and leaves the
/// other side's bytes, `mapped_pages()` and digest memo alone; later
/// writes to it copy nothing. A simulation started from
/// `image.clone()` thus pays for the pages it stores to, and any
/// number of clones hold the image's bytes once. Clones may be taken
/// from a shared `&Memory` on several threads and dropped in any order.
///
/// ```
/// use vr_isa::Memory;
/// let mut m = Memory::new();
/// assert_eq!(m.read(0xdead_beef, 8), 0);
/// m.write(0x1000, 8, 0x0123_4567_89ab_cdef);
/// assert_eq!(m.read(0x1000, 8), 0x0123_4567_89ab_cdef);
/// assert_eq!(m.read(0x1004, 4), 0x0123_4567);
/// ```
#[derive(Default, Debug)]
pub struct Memory {
    /// Sorted by `Chunk::idx`.
    chunks: Vec<Chunk>,
    /// Count of mapped 4 KiB pages.
    mapped: usize,
    /// The memoised [`Memory::digest`] of the current contents; 0 = no
    /// memo (a digest that is itself 0 is simply never memoised).
    /// `page_mut`, the only way to a writable page, clears it. An
    /// atomic so `digest(&self)` can fill it on a shared `&Memory`;
    /// `Relaxed` because the value publishes nothing but itself, and
    /// racing fillers store the same number. Declared ahead of the
    /// hint array so the store lands beside `chunks` and `mapped`,
    /// which `page_mut` is about to touch anyway.
    digest_memo: AtomicU64,
    /// Direct-mapped cache of chunk positions (`pos + 1`; 0 = empty),
    /// indexed by the low chunk-index bits. Entries self-verify
    /// against `chunks[pos].idx`, so stale hints (after an insert
    /// shifts positions) are harmless. Atomics keep shared `&Memory`
    /// lookups `Sync` for the parallel sweep runner; relaxed loads and
    /// stores compile to plain moves.
    hints: [AtomicUsize; HINT_SLOTS],
}

impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            chunks: self.chunks.clone(),
            mapped: self.mapped,
            // Same contents, same digest.
            digest_memo: AtomicU64::new(self.digest_memo.load(Ordering::Relaxed)),
            hints: std::array::from_fn(|i| AtomicUsize::new(self.hints[i].load(Ordering::Relaxed))),
        }
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Position of the chunk with index `cidx`, if mapped. Checks the
    /// direct-mapped hint cache before falling back to binary search.
    fn find_chunk(&self, cidx: u64) -> Option<usize> {
        let slot = (cidx as usize) & (HINT_SLOTS - 1);
        let cached = self.hints[slot].load(Ordering::Relaxed);
        if cached != 0 {
            if let Some(c) = self.chunks.get(cached - 1) {
                if c.idx == cidx {
                    return Some(cached - 1);
                }
            }
        }
        match self.chunks.binary_search_by_key(&cidx, |c| c.idx) {
            Ok(pos) => {
                self.hints[slot].store(pos + 1, Ordering::Relaxed);
                Some(pos)
            }
            Err(_) => None,
        }
    }

    /// The mapped page containing page index `pidx`, if any.
    fn page(&self, pidx: u64) -> Option<&Page> {
        let pos = self.find_chunk(pidx >> CHUNK_BITS)?;
        self.chunks[pos].pages[(pidx & CHUNK_MASK) as usize].as_deref()
    }

    /// The page containing page index `pidx`, mapping it (and its
    /// chunk) on demand.
    fn page_mut(&mut self, pidx: u64) -> &mut Page {
        // The caller is about to write: whatever digest was memoised
        // no longer describes the contents. A plain store (`&mut self`
        // proves no other thread is looking).
        *self.digest_memo.get_mut() = 0;
        let cidx = pidx >> CHUNK_BITS;
        let pos = match self.find_chunk(cidx) {
            Some(pos) => pos,
            None => {
                let pos = self
                    .chunks
                    .binary_search_by_key(&cidx, |c| c.idx)
                    .expect_err("find_chunk said absent");
                self.chunks.insert(pos, Chunk::new(cidx));
                self.hints[(cidx as usize) & (HINT_SLOTS - 1)].store(pos + 1, Ordering::Relaxed);
                pos
            }
        };
        // Un-share the table, then the page: a count check each when
        // this memory is the sole holder, a copy when a clone is too.
        let pages = Arc::make_mut(&mut self.chunks[pos].pages);
        let slot = &mut pages[(pidx & CHUNK_MASK) as usize];
        if slot.is_none() {
            self.mapped += 1;
        }
        Arc::make_mut(slot.get_or_insert_with(|| Arc::new([0u8; PAGE_SIZE])))
    }

    /// Number of mapped 4 KiB pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Whether the page containing `addr` has been written.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.page(addr >> PAGE_SHIFT).is_some()
    }

    /// Reads `size` bytes (1, 2, 4 or 8) at `addr`, zero-extended.
    /// Unmapped bytes read as zero. Accesses may straddle pages.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn read(&self, addr: u64, size: u64) -> u64 {
        assert!(matches!(size, 1 | 2 | 4 | 8), "unsupported access size {size}");
        let off = (addr & PAGE_MASK) as usize;
        if off + size as usize <= PAGE_SIZE {
            // Fast path: the access lies within one page.
            let mut bytes = [0u8; 8];
            if let Some(page) = self.page(addr >> PAGE_SHIFT) {
                bytes[..size as usize].copy_from_slice(&page[off..off + size as usize]);
            }
            return u64::from_le_bytes(bytes);
        }
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate().take(size as usize) {
            *b = self.read_byte(addr.wrapping_add(i as u64));
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes the low `size` bytes (1, 2, 4 or 8) of `value` at `addr`.
    /// Accesses may straddle pages.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn write(&mut self, addr: u64, size: u64, value: u64) {
        assert!(matches!(size, 1 | 2 | 4 | 8), "unsupported access size {size}");
        let bytes = value.to_le_bytes();
        let off = (addr & PAGE_MASK) as usize;
        if off + size as usize <= PAGE_SIZE {
            // Fast path: the access lies within one page.
            let page = self.page_mut(addr >> PAGE_SHIFT);
            page[off..off + size as usize].copy_from_slice(&bytes[..size as usize]);
            return;
        }
        for (i, b) in bytes.iter().enumerate().take(size as usize) {
            self.write_byte(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Reads an 8-byte value at `addr`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, 8)
    }

    /// Writes an 8-byte value at `addr`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, 8, value);
    }

    /// Reads an `f64` at `addr`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read(addr, 8))
    }

    /// Writes an `f64` at `addr`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write(addr, 8, value.to_bits());
    }

    /// Writes raw bytes at `addr`, copying page-sized chunks (the fast
    /// path for bulk workload-image construction).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let mut offset = 0usize;
        while offset < bytes.len() {
            let a = addr.wrapping_add(offset as u64);
            let page_off = (a & PAGE_MASK) as usize;
            let chunk = (PAGE_SIZE - page_off).min(bytes.len() - offset);
            let page = self.page_mut(a >> PAGE_SHIFT);
            page[page_off..page_off + chunk].copy_from_slice(&bytes[offset..offset + chunk]);
            offset += chunk;
        }
    }

    /// Writes `values` as a contiguous array of `N`-byte little-endian
    /// elements at `base`: encoded in bounded batches and handed to
    /// [`Memory::write_bytes`], so the page lookup is paid per page,
    /// not per element, and a generator is drawn one batch at a time
    /// instead of collected first. Every bulk writer is this one loop.
    fn write_le<T, const N: usize>(
        &mut self,
        base: u64,
        values: impl IntoIterator<Item = T>,
        le_bytes: impl Fn(T) -> [u8; N],
    ) {
        // Elements per batch; bounds the temporary byte buffer.
        const BATCH: usize = 1 << 16;
        let mut values = values.into_iter();
        let mut bytes = Vec::with_capacity(values.size_hint().0.min(BATCH) * N);
        let mut addr = base;
        loop {
            bytes.clear();
            for v in values.by_ref().take(BATCH) {
                bytes.extend_from_slice(&le_bytes(v));
            }
            if bytes.is_empty() {
                return;
            }
            self.write_bytes(addr, &bytes);
            addr = addr.wrapping_add(bytes.len() as u64);
        }
    }

    /// Writes the `u64` values `values` yields as a contiguous array at
    /// `base`, without collecting them.
    pub fn write_u64s(&mut self, base: u64, values: impl IntoIterator<Item = u64>) {
        self.write_le(base, values, u64::to_le_bytes);
    }

    /// Writes the `f64` values `values` yields as a contiguous array at
    /// `base`, without collecting them.
    pub fn write_f64s(&mut self, base: u64, values: impl IntoIterator<Item = f64>) {
        self.write_le(base, values, f64::to_le_bytes);
    }

    /// Writes a slice of `u64` values as a contiguous array at `base`.
    pub fn write_u64_slice(&mut self, base: u64, values: &[u64]) {
        self.write_u64s(base, values.iter().copied());
    }

    /// Writes a slice of `u32` values as a contiguous array at `base`.
    pub fn write_u32_slice(&mut self, base: u64, values: &[u32]) {
        self.write_le(base, values.iter().copied(), u32::to_le_bytes);
    }

    /// Writes a slice of `f64` values as a contiguous array at `base`.
    pub fn write_f64_slice(&mut self, base: u64, values: &[f64]) {
        self.write_f64s(base, values.iter().copied());
    }

    /// Reads `len` consecutive `u64` values starting at `base`.
    pub fn read_u64_vec(&self, base: u64, len: usize) -> Vec<u64> {
        (0..len).map(|i| self.read_u64(base + 8 * i as u64)).collect()
    }

    /// Deterministic digest of the memory image: a function of the
    /// readable contents only. An all-zero page contributes nothing, so
    /// a page written and then zeroed compares equal to one never
    /// touched (unmapped bytes read as zero either way); every other
    /// page contributes its index and its bytes, in ascending address
    /// order. Platform-independent (words are read little-endian).
    ///
    /// Each 4 KiB page is read once as 512 `u64` words dealt round-robin
    /// to four independent multiply-rotate lanes (word `i` goes to lane
    /// `i % 4`; the OR of the words doubles as the all-zero test); the
    /// page index and the four lane values are then folded, in that
    /// order, into the running digest through SplitMix64's bijective
    /// mixer. Every step is a bijection of its state, so changing any
    /// one word of any one page always changes the result.
    ///
    /// The result is memoised until the next write, and a clone
    /// inherits the memo, so fingerprinting the same image again
    /// (`vr-campaign`'s `point_key`, once per point) is a load.
    ///
    /// Used by the architectural-invisibility oracle: two memories
    /// with equal digests read identically at every address, so a
    /// fault-injected runahead run can be compared against the
    /// baseline without materializing a full image diff.
    pub fn digest(&self) -> u64 {
        let memo = self.digest_memo.load(Ordering::Relaxed);
        if memo != 0 {
            return memo;
        }
        let mut h = DIGEST_SEED;
        // `chunks` is sorted by index and pages within a chunk are
        // positional, so this walks mapped pages in ascending address
        // order.
        for chunk in &self.chunks {
            for (i, page) in chunk.pages.iter().enumerate() {
                let Some(page) = page else { continue };
                let Some(lanes) = digest_lanes(page) else { continue };
                h = mix64(h ^ ((chunk.idx << CHUNK_BITS) | i as u64));
                for lane in lanes {
                    h = mix64(h ^ lane);
                }
            }
        }
        self.digest_memo.store(h, Ordering::Relaxed);
        h
    }

    fn read_byte(&self, addr: u64) -> u8 {
        match self.page(addr >> PAGE_SHIFT) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    fn write_byte(&mut self, addr: u64, value: u8) {
        self.page_mut(addr >> PAGE_SHIFT)[(addr & PAGE_MASK) as usize] = value;
    }
}

/// Independent accumulators per page in [`Memory::digest`]: enough to
/// hide the multiply latency of one behind the other three.
const DIGEST_LANES: usize = 4;

/// Digest of the empty image, and the lanes' starting point (the
/// 64-bit golden ratio, as in SplitMix64).
const DIGEST_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The lane values of one page, or `None` if every byte is zero.
///
/// A lane absorbs a word as `(lane.rotate_left(32) ^ word) * odd`: a
/// bijection of the lane for a fixed word and of the word for a fixed
/// lane. The rotate brings the well-mixed high half down, so flips
/// confined to the top bits of two words cannot cancel as they would
/// under a bare multiply.
fn digest_lanes(page: &Page) -> Option<[u64; DIGEST_LANES]> {
    const MUL: u64 = 0xBF58_476D_1CE4_E5B9;
    // Distinct starts: a word moved to the same row of another lane
    // then changes two lane values, not just their order.
    let mut lanes: [u64; DIGEST_LANES] =
        std::array::from_fn(|j| DIGEST_SEED.wrapping_mul(2 * j as u64 + 1));
    let mut any = 0u64;
    for row in page.chunks_exact(8 * DIGEST_LANES) {
        for (lane, word) in lanes.iter_mut().zip(row.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
            any |= w;
            *lane = (lane.rotate_left(32) ^ w).wrapping_mul(MUL);
        }
    }
    (any != 0).then_some(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_are_zero_and_do_not_allocate() {
        let m = Memory::new();
        assert_eq!(m.read(0, 8), 0);
        assert_eq!(m.read(u64::MAX - 8, 8), 0);
        assert_eq!(m.mapped_pages(), 0);
    }

    #[test]
    fn round_trip_all_sizes() {
        let mut m = Memory::new();
        for (size, value) in [(1, 0xabu64), (2, 0xbeef), (4, 0xdead_beef), (8, u64::MAX - 1)] {
            m.write(0x200, size, value);
            assert_eq!(m.read(0x200, size), value);
        }
    }

    #[test]
    fn narrow_write_does_not_clobber_neighbours() {
        let mut m = Memory::new();
        m.write_u64(0x100, u64::MAX);
        m.write(0x102, 2, 0);
        assert_eq!(m.read_u64(0x100), 0xffff_ffff_0000_ffff);
    }

    #[test]
    fn page_straddling_access() {
        let mut m = Memory::new();
        let addr = 0x1000 - 4; // 8-byte access crossing a page boundary
        m.write(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn f64_round_trip() {
        let mut m = Memory::new();
        m.write_f64(0x40, 3.25);
        assert_eq!(m.read_f64(0x40), 3.25);
    }

    #[test]
    fn write_bytes_crosses_pages_and_round_trips() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        m.write_bytes(0x1f00, &data); // starts mid-page, spans 3 pages
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read(0x1f00 + i as u64, 1) as u8, b, "byte {i}");
        }
    }

    #[test]
    fn write_bytes_wraps_at_the_top_of_the_address_space_like_write() {
        let mut m = Memory::new();
        let data: Vec<u8> = (1..=16).collect();
        m.write_bytes(u64::MAX - 7, &data);
        assert_eq!(m.read(u64::MAX - 7, 8), u64::from_le_bytes(data[..8].try_into().unwrap()));
        assert_eq!(m.read(0, 8), u64::from_le_bytes(data[8..].try_into().unwrap()));
        // The same bytes through the scalar path, which always wrapped.
        let mut w = Memory::new();
        w.write(u64::MAX - 3, 8, 0x0c0b_0a09_0807_0605);
        assert_eq!(m.read(u64::MAX - 3, 8), w.read(u64::MAX - 3, 8));
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn large_u64_slice_round_trips_across_chunks() {
        let mut m = Memory::new();
        let values: Vec<u64> = (0..100_000u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        m.write_u64_slice(0x10_0000, &values);
        for i in (0..values.len()).step_by(7777) {
            assert_eq!(m.read_u64(0x10_0000 + 8 * i as u64), values[i]);
        }
        assert_eq!(m.read_u64(0x10_0000 + 8 * (values.len() as u64 - 1)), values[values.len() - 1]);
    }

    #[test]
    fn slice_helpers_round_trip() {
        let mut m = Memory::new();
        m.write_u64_slice(0x2000, &[1, 2, 3]);
        assert_eq!(m.read_u64_vec(0x2000, 3), vec![1, 2, 3]);
        m.write_u32_slice(0x3000, &[7, 8]);
        assert_eq!(m.read(0x3000, 4), 7);
        assert_eq!(m.read(0x3004, 4), 8);
        m.write_f64_slice(0x4000, &[0.5, -1.0]);
        assert_eq!(m.read_f64(0x4000), 0.5);
        assert_eq!(m.read_f64(0x4008), -1.0);
    }

    #[test]
    fn streamed_writes_match_element_by_element_writes() {
        // Mid-page and off an 8-byte boundary, so elements straddle
        // pages; each array runs past one 64 Ki-element batch.
        const BASE: u64 = 0x3_0ffc;
        const LEN: u64 = (1 << 16) + 1000;
        const F_BASE: u64 = BASE + 8 * LEN;
        let int = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let float = |i: u64| i as f64 / 3.0 - 7.0;
        let mut streamed = Memory::new();
        streamed.write_u64s(BASE, (0..LEN).map(int));
        streamed.write_f64s(F_BASE, (0..LEN).map(float));
        let mut by_element = Memory::new();
        for i in 0..LEN {
            by_element.write_u64(BASE + 8 * i, int(i));
            by_element.write_f64(F_BASE + 8 * i, float(i));
        }
        assert_eq!(streamed.mapped_pages(), by_element.mapped_pages());
        assert_eq!(streamed.digest(), by_element.digest());
        for a in (BASE - 16..F_BASE + 8 * LEN + 16).step_by(8) {
            assert_eq!(streamed.read_u64(a), by_element.read_u64(a), "at {a:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn invalid_size_panics() {
        Memory::new().read(0, 3);
    }

    #[test]
    fn digest_distinguishes_contents_not_mapping() {
        let empty = Memory::new();
        let mut zeroed = Memory::new();
        zeroed.write_u64(0x5000, 0); // maps a page but stays all-zero
        assert_eq!(empty.digest(), zeroed.digest(), "all-zero page == unmapped");

        let mut a = Memory::new();
        a.write_u64(0x1000, 42);
        let mut b = Memory::new();
        b.write_u64(0x1000, 42);
        assert_eq!(a.digest(), b.digest());
        b.write_u64(0x1000, 43);
        assert_ne!(a.digest(), b.digest());
        // Same value at a different address differs too.
        let mut c = Memory::new();
        c.write_u64(0x2000, 42);
        assert_ne!(a.digest(), c.digest());
    }
}
