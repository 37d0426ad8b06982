//! Sparse byte-addressed memory.

use std::collections::hash_map::{Entry, HashMap};
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
/// Pages may also be shared inside one image: a bulk writer
/// ([`Memory::write_bytes`], `write_u64s` and the other array writers)
/// lays out each distinct page of one array once, and a repeat of it
/// holds the same page. A first write to such a page copies it just as
/// a write to a page shared with a clone does.
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

    /// The slot of page index `pidx`, mapping its chunk on demand. An
    /// empty slot is counted as mapped: the caller fills it. Always
    /// inlined, so a store's `page_mut` stays one call.
    #[inline(always)]
    fn slot_mut(&mut self, pidx: u64) -> &mut Option<Arc<Page>> {
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
        // Un-share the table: a count check when this memory is its
        // sole holder, a copy when a clone is too.
        let pages = Arc::make_mut(&mut self.chunks[pos].pages);
        let slot = &mut pages[(pidx & CHUNK_MASK) as usize];
        if slot.is_none() {
            self.mapped += 1;
        }
        slot
    }

    /// The page containing page index `pidx`, mapping it (and its
    /// chunk) on demand.
    fn page_mut(&mut self, pidx: u64) -> &mut Page {
        // Un-share the page, as `slot_mut` did its table.
        Arc::make_mut(self.slot_mut(pidx).get_or_insert_with(|| Arc::new([0u8; PAGE_SIZE])))
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
            // Fast path: the access lies within one page. One fixed
            // width per arm, so each is a plain load rather than a
            // variable-length copy.
            let Some(page) = self.page(addr >> PAGE_SHIFT) else { return 0 };
            let at = &page[off..];
            return match size {
                1 => u64::from(at[0]),
                2 => u64::from(u16::from_le_bytes(*at.first_chunk().expect("in page"))),
                4 => u64::from(u32::from_le_bytes(*at.first_chunk().expect("in page"))),
                _ => u64::from_le_bytes(*at.first_chunk().expect("in page")),
            };
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
        let off = (addr & PAGE_MASK) as usize;
        if off + size as usize <= PAGE_SIZE {
            // Fast path: the access lies within one page. One fixed
            // width per arm, as in `read`, so each is a plain store
            // rather than a variable-length copy.
            let at = &mut self.page_mut(addr >> PAGE_SHIFT)[off..];
            match size {
                1 => at[0] = value as u8,
                2 => *at.first_chunk_mut().expect("in page") = (value as u16).to_le_bytes(),
                4 => *at.first_chunk_mut().expect("in page") = (value as u32).to_le_bytes(),
                _ => *at.first_chunk_mut().expect("in page") = value.to_le_bytes(),
            }
            return;
        }
        for (i, b) in value.to_le_bytes().iter().enumerate().take(size as usize) {
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
    /// path for bulk workload-image construction). A whole page that
    /// was not mapped and repeats one this call already laid out shares
    /// that page, copy-on-write, as a clone would.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        self.lay_out(addr, bytes, &mut LaidOut::new());
    }

    /// [`Memory::write_bytes`] for a caller that lays one array out in
    /// several calls, with `laid_out` the pages its earlier calls laid
    /// out.
    ///
    /// A whole, not-yet-mapped page is looked up in `laid_out` by a hash
    /// of its bytes. When an earlier page with the same hash also has
    /// the same 4096 bytes, the slot takes a clone of that page's `Arc`
    /// instead of an allocation of its own; otherwise the page is
    /// allocated, and recorded unless its hash is taken (no chaining:
    /// a collision costs a page, not a probe sequence). Sharing is what
    /// [`Clone`] already does between memories, so nothing can tell:
    /// `page_mut` gives the first writer to a shared page a private
    /// copy, and reads, [`Memory::digest`] and `mapped_pages()` see the
    /// same bytes and pages as before. A page that was already mapped
    /// is written in place, as is a page the call covers only in part.
    fn lay_out(&mut self, addr: u64, bytes: &[u8], laid_out: &mut LaidOut) {
        let mut offset = 0usize;
        while offset < bytes.len() {
            let a = addr.wrapping_add(offset as u64);
            let page_off = (a & PAGE_MASK) as usize;
            let chunk = (PAGE_SIZE - page_off).min(bytes.len() - offset);
            let src = &bytes[offset..offset + chunk];
            offset += chunk;
            if let Ok(whole) = <&Page>::try_from(src) {
                let slot = self.slot_mut(a >> PAGE_SHIFT);
                if slot.is_none() {
                    *slot = Some(share_or_allocate(laid_out, whole));
                    continue;
                }
            }
            self.page_mut(a >> PAGE_SHIFT)[page_off..page_off + chunk].copy_from_slice(src);
        }
    }

    /// Writes `values` as a contiguous array of `N`-byte little-endian
    /// elements at `base`: encoded in bounded batches and laid out by
    /// [`Memory::lay_out`], so the page lookup is paid per page, not
    /// per element, a generator is drawn one batch at a time instead of
    /// collected first, and a page the array repeats is laid out once.
    /// Every bulk writer is this one loop.
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
        // One table for the whole array, so a page repeated across
        // batches is laid out once too.
        let mut laid_out = LaidOut::new();
        let mut addr = base;
        loop {
            bytes.clear();
            for v in values.by_ref().take(BATCH) {
                bytes.extend_from_slice(&le_bytes(v));
            }
            if bytes.is_empty() {
                return;
            }
            self.lay_out(addr, &bytes, &mut laid_out);
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

/// The pages one bulk write has laid out, each under its
/// [`page_hash`]: a flat map whose entries (a key and an `Arc`) need no
/// allocation of their own. It lives for one call and holds a count on
/// each page it records.
type LaidOut = HashMap<u64, Arc<Page>>;

/// A hash of one page's bytes: [`Memory::digest`]'s four lanes folded
/// by its mixer, so a page costs one pass (0 for an all-zero page).
fn page_hash(page: &Page) -> u64 {
    digest_lanes(page).map_or(0, |lanes| lanes.into_iter().fold(DIGEST_SEED, |h, l| mix64(h ^ l)))
}

/// `page` as a page of its own, or as a clone of the one with the same
/// bytes `laid_out` holds. See [`Memory::lay_out`].
fn share_or_allocate(laid_out: &mut LaidOut, page: &Page) -> Arc<Page> {
    match laid_out.entry(page_hash(page)) {
        Entry::Occupied(e) if **e.get() == *page => Arc::clone(e.get()),
        Entry::Occupied(_) => Arc::new(*page),
        Entry::Vacant(e) => Arc::clone(e.insert(Arc::new(*page))),
    }
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

    /// Every width, written at each of a page's last 8 offsets (the
    /// ones that fit take the one-page path, the rest straddle into the
    /// next page), reads back whole, and moves no byte around it.
    #[test]
    fn every_width_at_a_page_end_reads_back_and_spares_its_neighbours() {
        const VALUE: u64 = 0x8877_6655_4433_2211;
        for size in [1u64, 2, 4, 8] {
            for addr in 0x2000 - 8..0x2000 {
                let mut m = Memory::new();
                m.write_bytes(0x2000 - 16, &[0xee; 32]);
                m.write(addr, size, VALUE);
                let mask = if size == 8 { u64::MAX } else { (1 << (8 * size)) - 1 };
                assert_eq!(m.read(addr, size), VALUE & mask, "size {size} at {addr:#x}");
                for a in 0x2000 - 16..0x2000 + 16 {
                    let want = if (addr..addr + size).contains(&a) {
                        VALUE.to_le_bytes()[(a - addr) as usize]
                    } else {
                        0xee
                    };
                    assert_eq!(m.read(a, 1), u64::from(want), "size {size} at {addr:#x}: {a:#x}");
                }
            }
        }
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

    /// The `Arc` behind the page holding `addr`, which must be mapped.
    fn page_arc(m: &Memory, addr: u64) -> &Arc<Page> {
        let pidx = addr >> PAGE_SHIFT;
        let pos = m.find_chunk(pidx >> CHUNK_BITS).expect("chunk mapped");
        m.chunks[pos].pages[(pidx & CHUNK_MASK) as usize].as_ref().expect("page mapped")
    }

    /// Word `i` of an array whose pages all hold the same 512 words.
    fn periodic(i: u64) -> u64 {
        (i % 512).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
    }

    /// 64 pages of one repeated page at `base`, streamed, and the same
    /// words written one at a time.
    fn repeated_pages(base: u64) -> (Memory, Memory) {
        let mut streamed = Memory::new();
        streamed.write_u64s(base, (0..64 * 512).map(periodic));
        let mut by_element = Memory::new();
        for i in 0..64 * 512 {
            by_element.write_u64(base + 8 * i, periodic(i));
        }
        (streamed, by_element)
    }

    #[test]
    fn a_repeated_page_is_laid_out_once_and_reads_as_written() {
        const BASE: u64 = 0x40_0000;
        let (streamed, by_element) = repeated_pages(BASE);
        // One page behind all 64 slots; the map and the bytes as before.
        let first = page_arc(&streamed, BASE);
        for p in 0..64 {
            assert!(Arc::ptr_eq(first, page_arc(&streamed, BASE + p * 4096)), "page {p}");
        }
        assert_eq!(streamed.mapped_pages(), 64);
        assert_eq!(streamed.digest(), by_element.digest());
        for a in (BASE - 8..BASE + 64 * 4096 + 8).step_by(4) {
            assert_eq!(streamed.read(a, 4), by_element.read(a, 4), "at {a:#x}");
        }
    }

    #[test]
    fn a_write_into_a_shared_page_changes_that_page_only() {
        const BASE: u64 = 0x40_0000;
        let (mut streamed, mut by_element) = repeated_pages(BASE);
        let at = BASE + 17 * 4096 + 40;
        streamed.write_u64(at, 0xdead);
        by_element.write_u64(at, 0xdead);
        assert_eq!(streamed.read_u64(at), 0xdead);
        assert_eq!(streamed.read_u64(at + 4096), periodic(5));
        assert_eq!(streamed.read_u64(at - 4096), periodic(5));
        assert_eq!(streamed.mapped_pages(), 64);
        assert_eq!(streamed.digest(), by_element.digest());
        for a in (BASE..BASE + 64 * 4096).step_by(8) {
            assert_eq!(streamed.read_u64(a), by_element.read_u64(a), "at {a:#x}");
        }
        // The written page left the share; the other 63 still hold one.
        assert!(!Arc::ptr_eq(page_arc(&streamed, at), page_arc(&streamed, BASE)));
        assert!(Arc::ptr_eq(page_arc(&streamed, BASE), page_arc(&streamed, BASE + 63 * 4096)));
    }

    #[test]
    fn a_clone_of_shared_pages_and_its_origin_write_apart() {
        const BASE: u64 = 0x40_0000;
        let (origin, _) = repeated_pages(BASE);
        let untouched = origin.digest();
        for write_origin in [false, true] {
            let mut a = origin.clone();
            let mut b = origin.clone();
            let (written, other) = if write_origin { (&mut a, &b) } else { (&mut b, &a) };
            written.write_u64(BASE + 3 * 4096, 7);
            assert_eq!(written.read_u64(BASE + 3 * 4096), 7);
            assert_eq!(other.read_u64(BASE + 3 * 4096), periodic(0));
            assert_eq!(other.digest(), untouched);
            assert_ne!(written.digest(), untouched);
            assert_eq!(other.mapped_pages(), 64);
            for p in 0..64 {
                assert_eq!(other.read_u64(BASE + p * 4096), periodic(0), "page {p}");
            }
            b.write_u64(BASE + 9 * 4096, 9);
            assert_eq!(a.read_u64(BASE + 9 * 4096), periodic(0));
        }
        assert_eq!(origin.digest(), untouched);
    }

    #[test]
    fn a_page_mapped_before_a_bulk_write_is_written_in_place() {
        const BASE: u64 = 0x40_0000;
        let mut m = Memory::new();
        m.write_u64(BASE + 4096 + 8, 5);
        let before = Arc::as_ptr(page_arc(&m, BASE + 4096));
        m.write_u64s(BASE, (0..4 * 512).map(periodic));
        // Same allocation, new bytes, and not shared with its twins.
        assert_eq!(Arc::as_ptr(page_arc(&m, BASE + 4096)), before);
        assert!(!Arc::ptr_eq(page_arc(&m, BASE + 4096), page_arc(&m, BASE)));
        assert!(Arc::ptr_eq(page_arc(&m, BASE), page_arc(&m, BASE + 2 * 4096)));
        assert_eq!(m.read_u64(BASE + 4096 + 8), periodic(1));
        assert_eq!(m.mapped_pages(), 4);
    }

    #[test]
    fn shared_pages_wrap_at_the_top_of_the_address_space_like_write() {
        // Four identical whole pages: two below the top, two from 0.
        let page: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8 | 1).collect();
        let bytes = page.repeat(4);
        let base = 0u64.wrapping_sub(2 * 4096);
        let mut m = Memory::new();
        m.write_bytes(base, &bytes);
        let mut w = Memory::new();
        for (i, &b) in bytes.iter().enumerate() {
            w.write(base.wrapping_add(i as u64), 1, u64::from(b));
        }
        assert_eq!(m.mapped_pages(), 4);
        assert_eq!(m.digest(), w.digest());
        assert!(Arc::ptr_eq(page_arc(&m, base), page_arc(&m, 4096)));
        for i in (0..bytes.len() as u64).step_by(4) {
            let a = base.wrapping_add(i);
            assert_eq!(m.read(a, 4), w.read(a, 4), "at {a:#x}");
        }
        assert_eq!(m.read(u64::MAX - 3, 8), w.read(u64::MAX - 3, 8));
    }

    #[test]
    fn pages_with_equal_hashes_but_different_bytes_stay_apart() {
        // Two pages under one key: the second is laid out on its own.
        let mut laid_out = LaidOut::new();
        let a: Page = [1; PAGE_SIZE];
        let b: Page = [2; PAGE_SIZE];
        laid_out.insert(page_hash(&b), Arc::new(a));
        let got = share_or_allocate(&mut laid_out, &b);
        assert_eq!(*got, b);
        assert_eq!(*laid_out[&page_hash(&b)], a, "a collision does not replace the entry");
        assert!(Arc::ptr_eq(&share_or_allocate(&mut laid_out, &[0; PAGE_SIZE]), &laid_out[&0]));
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
