//! The eight database / HPC benchmarks of the paper's evaluation
//! (collectively "hpc-db"): Camel, Graph500, HJ2, HJ8, Kangaroo,
//! NAS-CG, NAS-IS and RandomAccess.
//!
//! These are the kernels used across the runahead literature (PRE,
//! VR, the programmable-prefetcher line). Where the original source is
//! not public, DESIGN.md documents our interpretation of each kernel's
//! access pattern.

mod camel;
mod hashjoin;
mod kangaroo;
mod nas;
mod randomaccess;

pub use camel::{camel, camel_reference};
pub use hashjoin::{hashjoin, hashjoin_reference};
pub use kangaroo::{kangaroo, kangaroo_reference};
pub use nas::{nas_cg, nas_cg_on, nas_cg_reference, nas_is, nas_is_reference};
pub use randomaccess::{randomaccess, randomaccess_reference};

use crate::gap::bfs;
use crate::graph::kronecker;
use crate::{Scale, Workload};

/// Elements per data table at each scale (8 B each): paper scale uses
/// 16 MB tables so every indirect target array individually exceeds
/// the 8 MB LLC.
pub(crate) fn table_len(scale: Scale) -> u64 {
    match scale {
        Scale::Test => 1 << 10,
        Scale::Paper => 1 << 21,
    }
}

/// Probe/iteration count at each scale.
pub(crate) fn iter_count(scale: Scale) -> u64 {
    match scale {
        Scale::Test => 2_000,
        Scale::Paper => 200_000,
    }
}

/// Deterministic xorshift64 stream used to fill index tables: the
/// builders write it straight into memory, the references collect it.
pub(crate) fn xorshift_stream(seed: u64, n: u64, modulus: u64) -> impl Iterator<Item = u64> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % modulus
    })
}

/// Graph500: breadth-first search over a Kronecker graph with
/// Graph500 R-MAT parameters (the kernel is the GAP top-down BFS; the
/// benchmark identity is the input class).
pub fn graph500(scale: Scale) -> Workload {
    let (log_n, ef) = match scale {
        Scale::Test => (9, 8),
        Scale::Paper => (17, 16),
    };
    let g = kronecker(log_n, ef, 0x6500);
    let mut w = bfs::build(&g, "Graph500");
    w.name = "Graph500".to_owned();
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_stream_is_deterministic_and_bounded() {
        let a: Vec<u64> = xorshift_stream(42, 100, 64).collect();
        assert!(xorshift_stream(42, 100, 64).eq(a.iter().copied()));
        assert!(a.iter().all(|&v| v < 64));
        assert!(!xorshift_stream(43, 100, 64).eq(a.iter().copied()));
    }

    /// Digests and page counts of the Test-scale images in
    /// `hpcdb_suite` order, taken when every table was collected into a
    /// `Vec` (and NAS-CG's values written one element at a time) before
    /// it was written into memory.
    #[test]
    fn images_digest_as_when_their_tables_were_collected_first() {
        const PINS: [(&str, u64, usize); 8] = [
            ("Camel", 0xd5e5_54a2_1e80_a06b, 6),
            ("Graph500", 0xaed0_9e17_4e55_d162, 12),
            ("HJ2", 0xb4e5_8f69_b468_eaa8, 6),
            ("HJ8", 0x6ea4_a18d_0457_0d74, 6),
            ("Kangaroo", 0x21f5_7269_a9a9_e495, 8),
            ("NAS-CG", 0x2d9e_2119_2976_6035, 19),
            ("NAS-IS", 0x0857_f9be_86e9_e7f0, 8),
            ("RandomAccess", 0x8263_9d51_255b_0618, 4),
        ];
        let suite: Vec<Workload> = crate::hpcdb_suite(Scale::Test).into_iter().collect();
        assert_eq!(suite.len(), PINS.len());
        for (w, (name, digest, pages)) in suite.iter().zip(PINS) {
            assert_eq!(w.name, name);
            assert_eq!(w.memory.digest(), digest, "{name}");
            assert_eq!(w.memory.mapped_pages(), pages, "{name}");
        }
    }

    #[test]
    fn graph500_halts_at_test_scale() {
        let w = graph500(Scale::Test);
        assert_eq!(w.name, "Graph500");
        let cpu = w.run_functional(20_000_000).expect("halts");
        assert!(cpu.halted());
    }

    #[test]
    fn scales_are_ordered() {
        assert!(table_len(Scale::Paper) > table_len(Scale::Test));
        assert!(iter_count(Scale::Paper) > iter_count(Scale::Test));
    }
}
