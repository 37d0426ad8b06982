//! Stable fingerprints naming one simulation point.
//!
//! A *sim point* is everything that determines a run's statistics:
//! the workload (program text, initial memory image, initial
//! registers), the full configuration (core, memory system, runahead
//! engine — via the exhaustively-destructured fingerprint hooks in
//! `vr-core`/`vr-mem`), the instruction budget, and a code-version
//! salt. Two points with equal fingerprints simulate bit-identically,
//! so a stored result can stand in for a run.
//!
//! The salt ([`CODE_SALT`]) is the store's staleness lever: whenever a
//! change to the simulator alters *what* is simulated — i.e. whenever
//! the golden fingerprints in `crates/core/tests/golden_stats.rs` are
//! re-pinned — **or the key derivation itself changes** (a different
//! digest kernel, a new participating field), the salt must be bumped
//! in the same commit. Either way every record written before the bump
//! is orphaned once: loads miss, `verify` reports it stale, and
//! `store gc` reclaims it. Pure speed work that keeps the goldens
//! bit-identical and the keys unchanged keeps the salt.
//!
//! What a key costs: the two expensive inputs are computed once per
//! process and kept. The listing is rendered by the first
//! [`vr_isa::Program::listing`] call (~5-10 us) and shared by every
//! clone of the program; the image is fingerprinted by
//! [`vr_isa::Memory::digest`], one word-parallel pass the first time a
//! process sees that image and a memoised load afterwards (DESIGN.md
//! "What a fingerprint costs"). A key after that is byte-serial FNV
//! over the listing (~1.5 us for a 1 KB listing) plus the config hooks
//! (~0.7 us) — still, callers derive a point's key once and pass it on
//! (see [`crate::SweepPoint`]).

use vr_core::{CoreConfig, RunaheadConfig};
use vr_mem::MemConfig;
use vr_obs::Fnv64;
use vr_workloads::Workload;

/// Code-version salt folded into every fingerprint.
///
/// **Bump this in the same commit that re-pins
/// `crates/core/tests/golden_stats.rs`** (the only sanctioned way the
/// simulator's reported statistics may change) **or that changes how a
/// key is derived**. History:
///
/// * 1 — initial value, pinned to the post-PR-2 golden set.
/// * 2 — `Memory::digest` moved from byte-serial FNV-1a to the
///   four-lane word kernel, so every key changed; the goldens did not.
/// * 3 — `RunaheadConfig` lost three hashed fields and the `SimStats`
///   record one key, so every key and the record layout changed; the
///   goldens did not.
/// * 4 — a prefetched line has one owner record, so `pf_used` counts
///   each issue at most once (`golden_stats`' `pf_used_ra` re-pinned),
///   and the `MemStats` record gained `pf_evicted_unused`.
/// * 5 — the stride table became one fully associative LRU set, which
///   moves unpinned results (bc_UR at Paper scale runs 587 VR batches,
///   not 576); the goldens did not move.
pub const CODE_SALT: u64 = 5;

/// The 64-bit content address of one simulation point.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PointKey(pub u64);

impl PointKey {
    /// Filename-safe fixed-width hex rendering (the record's basename
    /// in the store).
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`PointKey::hex`] rendering: exactly 16 lowercase
    /// hex digits. Any other spelling of the same value (upper case, a
    /// leading `+`) is rejected, so a store file or an embedded key
    /// names a point only in the one spelling `hex` writes.
    pub fn from_hex(s: &str) -> Option<PointKey> {
        if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(PointKey)
    }
}

/// Fingerprints one simulation point (see the module docs for what
/// participates and why).
///
/// The workload is identified by *content*, not name: the program
/// listing, the initial-memory digest and the entry registers all
/// participate, so regenerating a workload with different inputs (a
/// different [`vr_workloads::Scale`], graph preset or seed) can never
/// alias a cached result.
pub fn point_key(
    w: &Workload,
    core: &CoreConfig,
    mem: &MemConfig,
    ra: &RunaheadConfig,
    max_insts: u64,
) -> PointKey {
    let mut h = Fnv64::new();
    h.write_str("vr-sim-point");
    h.write_u64(CODE_SALT);
    // Workload content.
    h.write_str(&w.name);
    h.write_str(w.program.listing());
    h.write_u64(w.memory.digest());
    h.write_u64(w.init_regs.len() as u64);
    for &(r, v) in &w.init_regs {
        h.write_u64(r.index() as u64);
        h.write_u64(v);
    }
    // Configuration (exhaustive hooks in vr-core / vr-mem).
    core.fingerprint(&mut h);
    mem.fingerprint(&mut h);
    ra.fingerprint(&mut h);
    // Budget.
    h.write_u64(max_insts);
    PointKey(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_workloads::graph::GraphPreset;
    use vr_workloads::{gap, hpcdb, Scale};

    #[test]
    fn hex_round_trips() {
        let k = PointKey(0x0123_4567_89ab_cdef);
        assert_eq!(k.hex(), "0123456789abcdef");
        assert_eq!(PointKey::from_hex(&k.hex()), Some(k));
        assert_eq!(PointKey::from_hex("123"), None);
        assert_eq!(PointKey::from_hex("zzzzzzzzzzzzzzzz"), None);
        // Leading zeros are preserved (fixed width).
        assert_eq!(PointKey(5).hex().len(), 16);
    }

    #[test]
    fn from_hex_rejects_spellings_hex_never_writes() {
        assert_eq!(PointKey::from_hex("0123456789ABCDEF"), None, "upper case");
        assert_eq!(PointKey::from_hex("0123456789abcdeF"), None, "one upper-case digit");
        assert_eq!(PointKey::from_hex("+123456789abcdef"), None, "a sign");
        assert_eq!(PointKey::from_hex("-123456789abcdef"), None, "a sign");
        assert_eq!(PointKey::from_hex(" 123456789abcdef"), None, "a space");
        assert_eq!(PointKey::from_hex("0123456789abcdef"), Some(PointKey(0x0123_4567_89ab_cdef)));
    }

    /// The keys of four Table 1 points, pinned. A stored record is
    /// found by its key, so these may only change in a commit that
    /// bumps [`CODE_SALT`]: any other edit that moves one re-keys
    /// every store.
    #[test]
    fn point_keys_are_pinned() {
        let graph = GraphPreset::Kron.generate(Scale::Test);
        let workloads = [hpcdb::kangaroo(Scale::Test), gap::bfs_on(&graph, GraphPreset::Kron)];
        let mut got = Vec::new();
        for w in &workloads {
            for ra in [RunaheadConfig::none(), RunaheadConfig::vector()] {
                let key = point_key(w, &CoreConfig::table1(), &MemConfig::table1(), &ra, 200_000);
                got.push(key);
            }
        }
        let want = [
            PointKey(0xda71_8caa_1468_2ced), // Kangaroo, OoO
            PointKey(0xc801_6acc_ef07_0002), // Kangaroo, VR
            PointKey(0x77de_a7c0_7c8c_a4bd), // bfs_KR, OoO
            PointKey(0x3990_5995_fd06_ee52), // bfs_KR, VR
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn every_input_separates_the_key() {
        let w = hpcdb::kangaroo(Scale::Test);
        let base = || {
            point_key(
                &w,
                &CoreConfig::table1(),
                &MemConfig::table1(),
                &RunaheadConfig::none(),
                1000,
            )
        };
        assert_eq!(base(), base(), "deterministic");
        assert_ne!(
            base(),
            point_key(
                &w,
                &CoreConfig::table1(),
                &MemConfig::table1(),
                &RunaheadConfig::none(),
                999
            ),
            "budget participates"
        );
        assert_ne!(
            base(),
            point_key(
                &w,
                &CoreConfig::with_rob(128),
                &MemConfig::table1(),
                &RunaheadConfig::none(),
                1000
            ),
            "core config participates"
        );
        assert_ne!(
            base(),
            point_key(
                &w,
                &CoreConfig::table1(),
                &MemConfig::table1_oracle(),
                &RunaheadConfig::none(),
                1000
            ),
            "mem config participates"
        );
        assert_ne!(
            base(),
            point_key(
                &w,
                &CoreConfig::table1(),
                &MemConfig::table1(),
                &RunaheadConfig::vector(),
                1000
            ),
            "runahead config participates"
        );
        let other = hpcdb::camel(Scale::Test);
        assert_ne!(
            base(),
            point_key(
                &other,
                &CoreConfig::table1(),
                &MemConfig::table1(),
                &RunaheadConfig::none(),
                1000
            ),
            "workload content participates"
        );
    }

    #[test]
    fn workload_content_not_just_name_participates() {
        // Same kernel, different input scale: the name matches but the
        // memory image differs, so the key must differ.
        let a = hpcdb::kangaroo(Scale::Test);
        let mut b = hpcdb::kangaroo(Scale::Test);
        b.memory.write_u64(0x10_0000, 0xdead_beef);
        assert_eq!(a.name, b.name);
        let key = |w: &Workload| {
            point_key(w, &CoreConfig::table1(), &MemConfig::table1(), &RunaheadConfig::none(), 1000)
        };
        assert_ne!(key(&a), key(&b), "initial memory participates");
    }
}
