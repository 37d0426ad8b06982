//! Property-style tests of the workload substrate, run as seeded
//! loops over `vr_isa::SplitMix64` (the workspace builds offline, so
//! no `proptest`).

use vr_isa::SplitMix64;
use vr_workloads::graph::{kronecker, uniform, Csr};
use vr_workloads::Arena;

/// Any CSR built from an edge list is structurally well-formed:
/// monotone row pointers, in-range destinations, edge-count match.
#[test]
fn csr_is_well_formed() {
    let mut rng = SplitMix64::new(0xC53_0001);
    for case in 0..32 {
        let n = rng.range(1, 200) as usize;
        let m = rng.below(500);
        let edges: Vec<(u64, u64)> =
            (0..m).map(|_| (rng.below(n as u64), rng.below(n as u64))).collect();
        let g = Csr::from_edges(n, &edges);
        assert_eq!(g.num_nodes(), n, "case {case}");
        assert_eq!(g.num_edges(), edges.len(), "case {case}");
        assert_eq!(g.row_ptr()[0], 0, "case {case}");
        for v in 0..n {
            assert!(g.row_ptr()[v] <= g.row_ptr()[v + 1], "case {case}: row_ptr must be monotone");
        }
        assert_eq!(g.row_ptr()[n] as usize, edges.len(), "case {case}");
        for &d in g.col_idx() {
            assert!((d as usize) < n, "case {case}: destination in range");
        }
        // Per-vertex degrees must match the edge list.
        let mut deg = vec![0usize; n];
        for &(s, _) in &edges {
            deg[s as usize] += 1;
        }
        for (v, &d) in deg.iter().enumerate() {
            assert_eq!(g.degree(v), d, "case {case}");
        }
    }
}

/// Generators produce well-formed graphs for arbitrary parameters.
#[test]
fn generators_are_well_formed() {
    let mut rng = SplitMix64::new(0xC53_0002);
    for case in 0..32 {
        let scale = rng.range(3, 11) as u32;
        let ef = rng.range(1, 16) as usize;
        let seed = rng.next_u64();
        let k = kronecker(scale, ef, seed);
        assert_eq!(k.num_nodes(), 1 << scale, "case {case}");
        assert_eq!(k.num_edges(), (1usize << scale) * ef, "case {case}");
        let u = uniform(1 << scale, ef, seed);
        for v in 0..u.num_nodes() {
            assert_eq!(u.degree(v), ef, "case {case}");
        }
    }
}

/// Arena allocations are page-aligned and pairwise disjoint for
/// arbitrary request sequences.
#[test]
fn arena_allocations_never_overlap() {
    let mut rng = SplitMix64::new(0xC53_0003);
    for case in 0..32 {
        let n = rng.range(1, 50);
        let mut arena = Arena::new();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n {
            let sz = rng.below(100_000);
            let base = arena.alloc(sz);
            assert_eq!(base % 4096, 0, "case {case}: page aligned");
            for &(b, s) in &spans {
                assert!(
                    base >= b + s || base + sz <= b,
                    "case {case}: overlap with [{b}, {})",
                    b + s
                );
            }
            spans.push((base, sz));
        }
    }
}
