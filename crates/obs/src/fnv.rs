//! A stable 64-bit FNV-1a hasher for on-disk fingerprints.
//!
//! [`std::hash::Hasher`] implementations (SipHash) are randomly keyed
//! per process and explicitly *not* stable across Rust versions, so
//! they cannot name records in a content-addressed store that must
//! survive process restarts. [`Fnv64`] is the classic FNV-1a
//! parameterization: deterministic, platform-independent (inputs are
//! folded in as little-endian bytes) and already the digest the
//! golden-stats suites fold the committed registers with. (Bulk data
//! is another matter: `vr_isa::Memory::digest` hashes ~1 GB of images
//! with a word-parallel kernel and hands this hasher one `u64`.)
//!
//! This is a *fingerprint*, not a cryptographic hash: collisions are
//! astronomically unlikely for the few thousand simulation points a
//! campaign holds, but nothing here defends against an adversary.

/// Incremental FNV-1a 64-bit hasher.
///
/// ```
/// use vr_obs::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write_str("bfs-KR");
/// h.write_u64(40_000);
/// let a = h.finish();
/// assert_eq!(a, Fnv64::new().str("bfs-KR").u64(40_000).finish());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// FNV-1a 64-bit offset basis.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64-bit prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A fresh hasher at the offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Folds a `u64` in as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `bool` in as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Folds an `f64` in by its IEEE-754 bit pattern (exact, including
    /// the sign of zero — configuration rates must fingerprint
    /// bit-identically, not approximately).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string in, length-prefixed so `("ab", "c")` and
    /// `("a", "bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }

    // Builder-style variants for one-expression fingerprints.

    /// Builder form of [`Fnv64::write_u64`].
    #[must_use]
    pub fn u64(mut self, v: u64) -> Fnv64 {
        self.write_u64(v);
        self
    }

    /// Builder form of [`Fnv64::write_str`].
    #[must_use]
    pub fn str(mut self, s: &str) -> Fnv64 {
        self.write_str(s);
        self
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_disambiguates_strings() {
        let ab_c = Fnv64::new().str("ab").str("c").finish();
        let a_bc = Fnv64::new().str("a").str("bc").finish();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn f64_is_hashed_by_bit_pattern() {
        let mut a = Fnv64::new();
        a.write_f64(0.0);
        let mut b = Fnv64::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "sign of zero participates");
        let mut c = Fnv64::new();
        c.write_f64(0.1 + 0.2);
        let mut d = Fnv64::new();
        d.write_f64(0.3);
        assert_ne!(c.finish(), d.finish(), "no epsilon folding");
    }

    #[test]
    fn bool_and_u64_are_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_bool(true);
        a.write_u64(7);
        let mut b = Fnv64::new();
        b.write_u64(7);
        b.write_bool(true);
        assert_ne!(a.finish(), b.finish());
    }
}
