//! Property-style tests of the memory hierarchy invariants, run as
//! seeded loops over `vr_isa::SplitMix64` (the workspace builds
//! offline, so no `proptest`).

use vr_isa::SplitMix64;
use vr_mem::{Access, Cache, CacheConfig, MemConfig, MemorySystem, MshrFile, Requestor};

/// A few hundred distinct lines so capacity effects appear.
fn arb_addr(rng: &mut SplitMix64) -> u64 {
    rng.below(512) * 64 + 8
}

fn arb_addrs(rng: &mut SplitMix64, max_len: u64) -> Vec<u64> {
    let len = rng.range(1, max_len);
    (0..len).map(|_| arb_addr(rng)).collect()
}

/// Timing sanity: every access's ready time is in the future, at
/// least L1 latency away, and bounded by lookup + DRAM + the total
/// queueing any prior accesses could have created.
#[test]
fn ready_times_are_sane() {
    let mut rng = SplitMix64::new(0x3E3_0001);
    for case in 0..64 {
        let addrs = arb_addrs(&mut rng, 200);
        let mut ms = MemorySystem::new(MemConfig::table1());
        let n = addrs.len() as u64;
        for (i, &a) in addrs.iter().enumerate() {
            let now = i as u64 * 7;
            // Dense miss streams legitimately exhaust the 24 MSHRs;
            // a real core would retry, so skip those.
            let Ok(out) = ms.access(a, Access::Load, Requestor::Main, 1, now) else {
                continue;
            };
            assert!(out.ready_at >= now + 4, "case {case}: at least L1 latency");
            let worst = now + 4 + 8 + 30 + 200 + 5 * n;
            assert!(out.ready_at <= worst, "case {case}: {} > {worst}", out.ready_at);
        }
    }
}

/// Re-accessing the same line after its fill completes is always
/// an L1 hit (no spurious invalidation), as long as no conflicting
/// fills happened in between.
#[test]
fn line_stays_resident_without_conflicts() {
    let mut rng = SplitMix64::new(0x3E3_0002);
    for case in 0..64 {
        let line = rng.below(1_000_000);
        let mut ms = MemorySystem::new(MemConfig::table1());
        let addr = line * 64;
        let r = ms.access(addr, Access::Load, Requestor::Main, 1, 0).unwrap();
        let r2 = ms.access(addr, Access::Load, Requestor::Main, 1, r.ready_at + 1).unwrap();
        assert_eq!(r2.hit, vr_mem::HitLevel::L1, "case {case} line {line}");
    }
}

/// The MSHR file never exceeds its capacity and never loses an
/// allocation before its ready time.
#[test]
fn mshr_capacity_invariant() {
    let mut rng = SplitMix64::new(0x3E3_0003);
    for case in 0..64 {
        let n = rng.range(1, 300);
        let mut m = MshrFile::new(8);
        let mut now = 0u64;
        for _ in 0..n {
            let line = rng.below(64);
            now += rng.below(500);
            m.expire(now);
            assert!(m.outstanding() <= 8, "case {case}");
            let la = line * 64;
            if m.pending(la).is_none() && m.has_free() {
                m.allocate(la, now, now + 200);
                assert_eq!(m.pending(la), Some(now + 200), "case {case}");
            }
        }
    }
}

/// LRU stack property: after touching k distinct lines of one
/// set (k ≤ assoc), all k remain resident.
#[test]
fn lru_stack_property() {
    let mut rng = SplitMix64::new(0x3E3_0004);
    for case in 0..64 {
        let touch: Vec<u64> = (0..rng.range(1, 64)).map(|_| rng.below(8)).collect();
        // 4-way, 2-set cache: lines 0..8 map alternately to both sets.
        let mut c =
            Cache::new(CacheConfig { size_bytes: 8 * 64, assoc: 4, line_bytes: 64, latency: 1 });
        for &l in &touch {
            let addr = l * 64;
            if c.lookup(addr).is_none() {
                c.fill(addr, None);
            }
        }
        // The 4 most-recently-touched lines of each set must be
        // resident.
        for set in 0..2u64 {
            let mut seen = Vec::new();
            for &l in touch.iter().rev() {
                if l % 2 == set && !seen.contains(&l) {
                    seen.push(l);
                    if seen.len() > 4 {
                        break;
                    }
                }
            }
            for &l in seen.iter().take(4) {
                assert!(c.contains(l * 64), "case {case}: line {l} must be MRU-resident");
            }
        }
    }
}

/// Determinism: identical access sequences produce identical
/// statistics.
#[test]
fn hierarchy_is_deterministic() {
    let mut rng = SplitMix64::new(0x3E3_0005);
    for case in 0..64 {
        let addrs = arb_addrs(&mut rng, 150);
        let run = || {
            let mut ms = MemorySystem::new(MemConfig::table1());
            let mut readies = Vec::new();
            for (i, &a) in addrs.iter().enumerate() {
                let kind = if i % 3 == 0 { Access::Store } else { Access::Load };
                if let Ok(out) = ms.access(a, kind, Requestor::Main, i as u64 % 7, i as u64 * 3) {
                    readies.push(out.ready_at);
                }
            }
            (readies, ms.stats().dram_reads_total(), ms.stats().load_hits)
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

/// Prefetches never make demand timing *worse*: a prefetched line
/// is served at least as fast as an unprefetched one would be at
/// the same cycle.
#[test]
fn prefetch_never_hurts_single_line() {
    let mut rng = SplitMix64::new(0x3E3_0006);
    for case in 0..64 {
        let line = rng.below(100_000);
        let gap = rng.below(600);
        let addr = line * 64;
        let mut with_pf = MemorySystem::new(MemConfig::table1());
        with_pf.prefetch(addr, Requestor::Runahead, 0);
        let t = 10 + gap;
        let a = with_pf.access(addr, Access::Load, Requestor::Main, 1, t).unwrap();

        let mut without = MemorySystem::new(MemConfig::table1());
        let b = without.access(addr, Access::Load, Requestor::Main, 1, t).unwrap();
        assert!(a.ready_at <= b.ready_at, "case {case}: {} > {}", a.ready_at, b.ready_at);
    }
}
