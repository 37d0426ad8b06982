//! `Memory::digest`: the memo can never go stale, the kernel separates
//! what it must, and the batched slice writers build the same image as
//! the per-element writes they replaced.
//!
//! Property-style, seeded loops (`SplitMix64`; the workspace has no
//! registry dependencies). Addresses are drawn from two small windows
//! that straddle a page boundary and a 2 MiB chunk boundary, so every
//! trial exercises the interesting seams and a from-scratch rebuild
//! of the image stays cheap enough to do after every step.

use std::collections::BTreeMap;
use std::sync::Barrier;

use vr_isa::{Memory, SplitMix64};

const PAGE: u64 = 4096;
/// Last page of chunk 0 (chunks span 2 MiB): a window starting here
/// crosses into chunk 1.
const CHUNK_SEAM: u64 = (2 << 20) - PAGE;
/// An unrelated, far-away chunk.
const FAR: u64 = 0x7000_0000 - PAGE / 2;
/// Bytes an op may reach past its window base.
const WINDOW: u64 = 2 * PAGE;

/// The reference model: readable contents as whole pages, nothing else.
#[derive(Default)]
struct Shadow(BTreeMap<u64, Box<[u8; PAGE as usize]>>);

impl Shadow {
    fn write(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr + i as u64;
            self.0.entry(a / PAGE).or_insert_with(|| Box::new([0; PAGE as usize]))
                [(a % PAGE) as usize] = b;
        }
    }

    /// A `Memory` built from nothing but the contents.
    fn fresh(&self) -> Memory {
        let mut m = Memory::new();
        for (&pidx, page) in &self.0 {
            m.write_bytes(pidx * PAGE, &page[..]);
        }
        m
    }
}

fn addr(rng: &mut SplitMix64) -> u64 {
    let base = if rng.chance(0.5) { CHUNK_SEAM } else { FAR };
    base + rng.below(WINDOW)
}

/// Mostly random words, sometimes zero (so pages can return to all-zero).
fn word(rng: &mut SplitMix64) -> u64 {
    if rng.chance(0.25) {
        0
    } else {
        rng.next_u64()
    }
}

#[test]
fn memoised_digest_always_equals_a_fresh_build() {
    let mut rng = SplitMix64::new(0xD16E57);
    let mut mem = Memory::new();
    let mut shadow = Shadow::default();
    let mut kinds = [0u32; 8];
    for step in 0..10_000 {
        let kind = rng.below(8) as usize;
        kinds[kind] += 1;
        let a = addr(&mut rng);
        match kind {
            0 => {
                let size = 1u64 << rng.below(4);
                let v = word(&mut rng);
                mem.write(a, size, v);
                shadow.write(a, &v.to_le_bytes()[..size as usize]);
            }
            1 => {
                let len = rng.below(600) as usize;
                let zero = rng.chance(0.2);
                let bytes: Vec<u8> =
                    (0..len).map(|_| if zero { 0 } else { rng.next_u64() as u8 }).collect();
                mem.write_bytes(a, &bytes);
                shadow.write(a, &bytes);
            }
            2 => {
                let vals: Vec<u64> = (0..rng.below(40)).map(|_| word(&mut rng)).collect();
                mem.write_u64_slice(a, &vals);
                for (i, v) in vals.iter().enumerate() {
                    shadow.write(a + 8 * i as u64, &v.to_le_bytes());
                }
            }
            3 => {
                let vals: Vec<u32> = (0..rng.below(40)).map(|_| word(&mut rng) as u32).collect();
                mem.write_u32_slice(a, &vals);
                for (i, v) in vals.iter().enumerate() {
                    shadow.write(a + 4 * i as u64, &v.to_le_bytes());
                }
            }
            4 => {
                let vals: Vec<f64> =
                    (0..rng.below(40)).map(|_| f64::from_bits(word(&mut rng))).collect();
                mem.write_f64_slice(a, &vals);
                for (i, v) in vals.iter().enumerate() {
                    shadow.write(a + 8 * i as u64, &v.to_le_bytes());
                }
            }
            // Wipe a whole page back to zeros.
            5 => {
                let page = a & !(PAGE - 1);
                mem.write_bytes(page, &[0; PAGE as usize]);
                shadow.write(page, &[0; PAGE as usize]);
            }
            // Carry on with a clone (memo and all); drop the original.
            6 => mem = mem.clone(),
            // A second digest with no write in between: the memo hit.
            _ => assert_eq!(mem.digest(), mem.digest()),
        }
        assert_eq!(mem.digest(), shadow.fresh().digest(), "step {step}, op {kind} at {a:#x}");
    }
    assert!(kinds.iter().all(|&n| n > 1000), "every op kind exercised: {kinds:?}");
}

#[test]
fn a_clone_and_its_origin_never_share_a_stale_memo() {
    let mut shadow = Shadow::default();
    shadow.write(CHUNK_SEAM + 100, &[1, 2, 3, 4]);
    let mut a = shadow.fresh();
    let before = a.digest(); // memo filled, then cloned
    let mut b = a.clone();
    assert_eq!(b.digest(), before);

    // Mutate the clone: the origin keeps its (still true) memo.
    b.write(CHUNK_SEAM + 100, 1, 9);
    assert_ne!(b.digest(), before);
    assert_eq!(a.digest(), before);

    // Mutate the origin: a clone taken earlier keeps the old value.
    let c = a.clone();
    a.write(FAR, 8, 77);
    assert_ne!(a.digest(), before);
    assert_eq!(c.digest(), before);
    shadow.write(FAR, &77u64.to_le_bytes());
    assert_eq!(a.digest(), shadow.fresh().digest());

    // A clone taken before any digest computes its own.
    let mut d = shadow.fresh();
    let e = d.clone();
    d.write(FAR, 8, 78);
    assert_eq!(e.digest(), a.digest());
    assert_ne!(d.digest(), e.digest());
}

#[test]
fn two_threads_digesting_one_shared_image_agree() {
    let mut rng = SplitMix64::new(7);
    let words: Vec<u64> = (0..64 * 512).map(|_| rng.next_u64()).collect();
    let mut mem = Memory::new();
    mem.write_u64_slice(CHUNK_SEAM, &words);
    let want = mem.clone().digest();
    for _ in 0..20 {
        mem.write_u64(CHUNK_SEAM, words[0]); // same contents, memo dropped
        let shared = &mem;
        // Both threads start their first-sight pass together.
        let gate = Barrier::new(2);
        let (x, y) = std::thread::scope(|s| {
            let go = || {
                gate.wait();
                shared.digest()
            };
            let t = s.spawn(go);
            (go(), t.join().expect("digest thread"))
        });
        assert_eq!((x, y), (want, want));
    }
}

#[test]
fn a_page_written_then_zeroed_equals_unmapped() {
    let mut m = Memory::new();
    let empty = m.digest();
    m.write_u64(FAR, 0xdead_beef);
    assert_ne!(m.digest(), empty);
    m.write_u64(FAR, 0);
    assert!(m.is_mapped(FAR));
    assert_eq!(m.digest(), empty);
    assert_eq!(m.digest(), Memory::new().digest());
}

/// Four pages: two dense random ones, two sparse ones (a handful of
/// nonzero words in a sea of zeros — where a weak kernel collides).
fn base_image(rng: &mut SplitMix64) -> Vec<[u64; 512]> {
    (0..4)
        .map(|p| {
            let mut page = [0u64; 512];
            if p < 2 {
                page.iter_mut().for_each(|w| *w = rng.next_u64());
            } else {
                for _ in 0..6 {
                    page[rng.below(512) as usize] = rng.next_u64() | 1;
                }
            }
            page
        })
        .collect()
}

/// Page indices the image sits at: a chunk seam and a far page.
const AT: [u64; 4] = [511, 512, 513, 0x7_0000];

fn build(pages: &[[u64; 512]], at: &[u64]) -> Memory {
    let mut m = Memory::new();
    for (page, &pidx) in pages.iter().zip(at) {
        m.write_u64_slice(pidx * PAGE, page);
    }
    m
}

#[test]
fn every_small_change_to_an_image_changes_its_digest() {
    let mut rng = SplitMix64::new(0x5EED);
    let pages = base_image(&mut rng);
    let mut mem = build(&pages, &AT);
    let base = mem.digest();
    let mut seen = std::collections::HashSet::from([base]);
    for trial in 0..10_000 {
        let p = rng.below(4) as usize;
        let got = match trial % 4 {
            // One bit, anywhere.
            0 => {
                let a = AT[p] * PAGE + rng.below(PAGE);
                let bit = 1u64 << rng.below(8);
                mem.write(a, 1, mem.read(a, 1) ^ bit);
                let d = mem.digest();
                mem.write(a, 1, mem.read(a, 1) ^ bit);
                d
            }
            // Two pages trade contents.
            1 => {
                let q = (p + 1 + rng.below(3) as usize) % 4;
                let mut swapped = pages.clone();
                swapped.swap(p, q);
                build(&swapped, &AT).digest()
            }
            // One page moves to an index nothing else occupies.
            2 => {
                let mut at = AT;
                at[p] = 0x10_0000 + rng.below(1 << 20);
                build(&pages, &at).digest()
            }
            // One word trades places with a different word of another lane.
            _ => {
                let page = &pages[p];
                let i = (0..).map(|_| rng.below(512) as usize).find(|&i| page[i] != 0).unwrap();
                let j = (0..)
                    .map(|_| rng.below(512) as usize)
                    .find(|&j| j % 4 != i % 4 && page[j] != page[i])
                    .unwrap();
                let (ai, aj) = (AT[p] * PAGE + 8 * i as u64, AT[p] * PAGE + 8 * j as u64);
                mem.write_u64(ai, page[j]);
                mem.write_u64(aj, page[i]);
                let d = mem.digest();
                mem.write_u64(ai, page[i]);
                mem.write_u64(aj, page[j]);
                d
            }
        };
        assert_ne!(got, base, "trial {trial}: change went unnoticed");
        seen.insert(got);
        assert_eq!(mem.digest(), base, "trial {trial}: undo restores the digest");
    }
    // Not merely different from the base: different from each other,
    // wherever the images are. There are only 6 distinct page swaps, and
    // a few dozen of the 2500 bit flips (4 × 32768 positions) and lane
    // trades repeat an earlier one exactly; the other ~7450 trials each
    // built an image of their own.
    assert!(seen.len() > 7_300, "only {} distinct digests", seen.len());
}

/// Per-element reference for the slice writers.
fn per_element<T: Copy>(base: u64, vals: &[T], size: u64, bits: impl Fn(T) -> u64) -> Memory {
    let mut m = Memory::new();
    for (i, &v) in vals.iter().enumerate() {
        m.write(base + size * i as u64, size, bits(v));
    }
    m
}

#[test]
fn slice_writers_build_the_same_image_as_per_element_writes() {
    let mut rng = SplitMix64::new(42);
    // Longer than one internal batch (65536 elements), and short ones.
    for len in [0usize, 1, 7, 1025, 70_000] {
        // Page-straddling, chunk-straddling, unaligned and aligned.
        for base in [PAGE - 4, CHUNK_SEAM + PAGE - 12, FAR + 3, 0x4000] {
            let u64s: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let u32s: Vec<u32> = u64s.iter().map(|&v| v as u32).collect();
            let f64s: Vec<f64> = u64s.iter().map(|&v| f64::from_bits(v)).collect();
            let mut m = [Memory::new(), Memory::new(), Memory::new()];
            m[0].write_u64_slice(base, &u64s);
            m[1].write_u32_slice(base, &u32s);
            m[2].write_f64_slice(base, &f64s);
            let want = [
                per_element(base, &u64s, 8, |v| v),
                per_element(base, &u32s, 4, u64::from),
                per_element(base, &f64s, 8, f64::to_bits),
            ];
            for (k, (got, want)) in m.iter().zip(&want).enumerate() {
                assert_eq!(got.mapped_pages(), want.mapped_pages(), "writer {k} len {len}");
                assert_eq!(got.digest(), want.digest(), "writer {k} len {len} base {base:#x}");
            }
            assert_eq!(m[0].read_u64_vec(base, len), u64s);
            assert_eq!(m[2].read_u64_vec(base, len), u64s, "f64 bit patterns survive");
        }
    }
}
