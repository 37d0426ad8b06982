//! `Memory::clone` shares pages; a write never crosses the share.
//!
//! What a clone must look like from outside is exactly what a deep
//! copy looked like: a write through one memory is readable through
//! that memory only, whatever it was cloned from or into, in whatever
//! order clones are made, written and dropped. Seeded loops
//! (`SplitMix64`; no registry dependencies); addresses come from
//! windows over a page seam, a 2 MiB chunk seam and a far chunk that
//! starts unmapped, so writes un-share pages, un-share page tables, map
//! new pages and insert new chunks.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Barrier;

use vr_isa::{Memory, SplitMix64};

const PAGE: u64 = 4096;
const CHUNK: u64 = 2 << 20;
/// Window bases: mid-chunk page seam, chunk seam, and two chunks the
/// base image leaves unmapped.
const WINDOWS: [u64; 4] = [0x1000_0000 + 7 * PAGE, 3 * CHUNK - PAGE, 0x7000_0000, 0x10 * CHUNK];
const WINDOW: u64 = 2 * PAGE;

/// Every page any memory of a family was ever written in.
type Universe = BTreeSet<u64>;

/// A memory and the pages it must read back (everything else reads 0).
#[derive(Clone)]
struct Tracked {
    mem: Memory,
    pages: BTreeMap<u64, Box<[u8; PAGE as usize]>>,
}

impl Tracked {
    fn note(&mut self, all: &mut Universe, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let a = addr.wrapping_add(i as u64);
            all.insert(a / PAGE);
            self.pages.entry(a / PAGE).or_insert_with(|| Box::new([0; PAGE as usize]))
                [(a % PAGE) as usize] = b;
        }
    }

    fn write(&mut self, all: &mut Universe, addr: u64, size: u64, value: u64) {
        self.mem.write(addr, size, value);
        self.note(all, addr, &value.to_le_bytes()[..size as usize]);
    }

    fn write_bytes(&mut self, all: &mut Universe, addr: u64, bytes: &[u8]) {
        self.mem.write_bytes(addr, bytes);
        self.note(all, addr, bytes);
    }

    /// Every page ever written in any memory of the family reads back
    /// as this memory's own history says.
    fn check(&self, all: &Universe, what: &str) {
        const ZERO: [u8; PAGE as usize] = [0; PAGE as usize];
        for &p in all {
            let want = self.pages.get(&p).map_or(&ZERO, |page| &**page);
            for (i, &b) in want.iter().enumerate() {
                let a = p * PAGE + i as u64;
                assert_eq!(self.mem.read(a, 1) as u8, b, "{what}: byte at {a:#x}");
            }
        }
    }

    /// The same contents built from nothing, sharing nothing.
    fn fresh(&self) -> Memory {
        let mut m = Memory::new();
        for (&p, page) in &self.pages {
            m.write_bytes(p * PAGE, &page[..]);
        }
        m
    }
}

/// Dense words over the first two windows: the image clones start from.
fn base(rng: &mut SplitMix64) -> (Tracked, Universe) {
    let mut t = Tracked { mem: Memory::new(), pages: BTreeMap::new() };
    let mut all = Universe::new();
    for w in &WINDOWS[..2] {
        let bytes: Vec<u8> = (0..WINDOW).map(|_| rng.next_u64() as u8 | 1).collect();
        t.write_bytes(&mut all, *w, &bytes);
    }
    (t, all)
}

#[test]
fn a_write_is_readable_through_the_written_memory_only() {
    let mut rng = SplitMix64::new(0xC0_57A1);
    let (origin, mut all) = base(&mut rng);
    // Clones of the origin, then of each other; the origin is one of them.
    let mut family = vec![origin.clone(), origin.clone(), origin];
    let mut kinds = [0u32; 5];
    for step in 0..3000 {
        let who = rng.below(family.len() as u64) as usize;
        let a = WINDOWS[rng.below(4) as usize] + rng.below(WINDOW);
        let pages_before: Vec<usize> = family.iter().map(|t| t.mem.mapped_pages()).collect();
        let digests_before: Vec<u64> = family.iter().map(|t| t.mem.digest()).collect();
        let kind = rng.below(5) as usize;
        kinds[kind] += 1;
        match kind {
            // Every access size, at any alignment (so some straddle pages).
            0 | 1 => family[who].write(&mut all, a, 1 << rng.below(4), rng.next_u64() | 1),
            // Forced page straddle, then forced chunk straddle.
            2 => {
                let end = a | (PAGE - 1);
                family[who].write(&mut all, end - rng.below(7), 8, rng.next_u64() | 1);
                let n = rng.range(2, 3 * PAGE) as usize;
                let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8 | 1).collect();
                family[who].write_bytes(&mut all, 3 * CHUNK - rng.range(1, n as u64), &bytes);
            }
            // Replace one member by a clone of another (dropping it).
            3 => {
                let from = rng.below(family.len() as u64) as usize;
                family[who] = family[from].clone();
            }
            // Grow or shrink the family; the origin may be the one dropped.
            _ => {
                if family.len() < 5 {
                    family.push(family[who].clone());
                } else {
                    family.swap_remove(who);
                }
                continue;
            }
        }
        for (i, t) in family.iter().enumerate() {
            if i != who {
                assert_eq!(t.mem.mapped_pages(), pages_before[i], "step {step}: sibling {i}");
                assert_eq!(t.mem.digest(), digests_before[i], "step {step}: sibling {i}");
            }
        }
        if step % 50 == 0 {
            for (i, t) in family.iter().enumerate() {
                t.check(&all, &format!("step {step}, member {i} after op {kind} on {who}"));
                assert_eq!(t.mem.digest(), t.fresh().digest(), "step {step}: member {i} digest");
            }
        }
    }
    assert!(kinds.iter().all(|&n| n > 400), "every op kind exercised: {kinds:?}");
    for (i, t) in family.iter().enumerate() {
        t.check(&all, &format!("end, member {i}"));
    }
}

#[test]
fn mapping_new_pages_and_chunks_in_a_clone_leaves_the_origin_unmapped() {
    let mut rng = SplitMix64::new(1);
    let origin = base(&mut rng).0.mem;
    let pages = origin.mapped_pages();
    let mut clone = origin.clone();
    // A new page in a chunk both share, then a chunk neither had, on
    // both sides of the existing ones.
    for (k, a) in [WINDOWS[0] + 64 * PAGE, 0x40, WINDOWS[2], u64::MAX - 7].into_iter().enumerate() {
        clone.write(a, 8, 0xfeed_0000 + k as u64);
        assert_eq!(clone.read(a, 8), 0xfeed_0000 + k as u64);
        assert_eq!(origin.read(a, 8), 0);
        assert!(!origin.is_mapped(a));
        assert_eq!((origin.mapped_pages(), clone.mapped_pages()), (pages, pages + k + 1));
    }
    // And the other way round: the clone does not see the origin grow.
    let mut origin = origin;
    origin.write(WINDOWS[3], 8, 5);
    assert_eq!(clone.read(WINDOWS[3], 8), 0);
    assert_eq!(clone.mapped_pages(), pages + 4);
}

#[test]
fn a_clone_inherits_the_digest_and_a_write_moves_only_the_writers() {
    let mut rng = SplitMix64::new(2);
    let (origin, mut all) = base(&mut rng);
    let before = origin.mem.digest();
    let mut clone = origin.clone();
    assert_eq!(clone.mem.digest(), before);
    clone.write(&mut all, WINDOWS[1] + 12, 4, 0x0bad_cafe);
    assert_eq!(origin.mem.digest(), before);
    assert_eq!(clone.mem.digest(), clone.fresh().digest());
    assert_ne!(clone.mem.digest(), before);
    // Writing the old bytes back restores the contents, hence the digest.
    let old = origin.mem.read(WINDOWS[1] + 12, 4);
    clone.write(&mut all, WINDOWS[1] + 12, 4, old);
    assert_eq!(clone.mem.digest(), before);
}

#[test]
fn the_clone_outlives_the_origin() {
    let mut rng = SplitMix64::new(3);
    let (origin, mut all) = base(&mut rng);
    let want = origin.mem.digest();
    let mut clone = origin.clone();
    drop(origin);
    clone.check(&all, "after dropping the origin");
    assert_eq!(clone.mem.digest(), want);
    // Now the sole owner: writes land in place and read back.
    clone.write(&mut all, WINDOWS[0], 8, 42);
    clone.check(&all, "after a write as sole owner");
}

#[test]
fn threads_cloning_one_shared_image_see_only_their_own_writes() {
    let mut rng = SplitMix64::new(4);
    let (origin, all) = base(&mut rng);
    let want = origin.mem.digest();
    let shared = &origin.mem;
    const THREADS: u64 = 2;
    for round in 0..20 {
        // Released together, so the clones and the first stores to the
        // same shared pages (and page tables) race.
        let gate = Barrier::new(THREADS as usize);
        let gate = &gate;
        let finals: Vec<Memory> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    s.spawn(move || {
                        gate.wait();
                        let mut mine = shared.clone();
                        for i in 0..512u64 {
                            // Overlapping: every thread writes these words.
                            mine.write(WINDOWS[1] + 8 * i, 8, (t << 32) | i);
                            // Disjoint: a page of its own in a shared chunk.
                            mine.write(WINDOWS[0] + (16 + t) * PAGE + 8 * i, 8, !i);
                        }
                        // Its own writes, and nobody else's.
                        for i in 0..512u64 {
                            assert_eq!(mine.read(WINDOWS[1] + 8 * i, 8), (t << 32) | i);
                            let other = WINDOWS[0] + (16 + (t + 1) % THREADS) * PAGE + 8 * i;
                            assert_eq!(mine.read(other, 8), 0, "round {round}, thread {t}");
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("writer thread")).collect()
        });
        assert_eq!(shared.digest(), want, "round {round}: the shared image moved");
        assert_ne!(finals[0].digest(), finals[1].digest());
    }
    origin.check(&all, "origin after the rounds");
}
