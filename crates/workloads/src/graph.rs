//! Graph representation and synthetic input generators.
//!
//! The paper's Table 2 inputs (Kron, LiveJournal, Orkut, Twitter,
//! Urand — up to 2.1 B edges) cannot be simulated at full size on a
//! cycle-level model; [`GraphPreset`] generates scaled-down synthetic
//! graphs preserving the property the paper's analysis keys on: the
//! *degree distribution* (power-law Kronecker/R-MAT vs uniform
//! random), with footprints well past the 8 MB LLC at
//! [`Scale::Paper`].

use std::sync::OnceLock;

use vr_isa::{Memory, SplitMix64};

use crate::Scale;

/// Compressed-sparse-row directed graph. Immutable once built: the
/// arrays are read through [`Csr::row_ptr`] and [`Csr::col_idx`].
#[derive(Clone, Debug)]
pub struct Csr {
    row_ptr: Vec<u64>,
    col_idx: Vec<u64>,
    /// The two arrays as `gap::load_graph` lays them out in simulated
    /// memory, built on first use. Every GAP kernel over this graph
    /// starts from a clone of it, so their images share the graph's
    /// pages. It cannot go stale because nothing can change the arrays.
    pub(crate) image: OnceLock<Memory>,
}

impl Csr {
    /// Row offsets, `n + 1` entries.
    pub fn row_ptr(&self) -> &[u64] {
        &self.row_ptr
    }

    /// Destination vertex per edge.
    pub fn col_idx(&self) -> &[u64] {
        &self.col_idx
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.row_ptr[v + 1] - self.row_ptr[v]) as usize
    }

    /// Neighbours of `v`.
    pub fn neighbors(&self, v: usize) -> &[u64] {
        &self.col_idx[self.row_ptr[v] as usize..self.row_ptr[v + 1] as usize]
    }

    /// Builds a CSR from an edge list over `n` vertices.
    pub fn from_edges(n: usize, edges: &[(u64, u64)]) -> Csr {
        let mut deg = vec![0u64; n];
        for &(s, _) in edges {
            deg[s as usize] += 1;
        }
        let mut row_ptr = vec![0u64; n + 1];
        for v in 0..n {
            row_ptr[v + 1] = row_ptr[v] + deg[v];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u64; edges.len()];
        for &(s, d) in edges {
            col_idx[cursor[s as usize] as usize] = d;
            cursor[s as usize] += 1;
        }
        Csr { row_ptr, col_idx, image: OnceLock::new() }
    }

    /// Memory footprint in bytes when laid out as 8-byte arrays.
    pub fn footprint_bytes(&self) -> u64 {
        (self.row_ptr.len() + self.col_idx.len()) as u64 * 8
    }
}

/// Generates a uniform-random graph: every vertex gets exactly
/// `degree` out-edges with uniformly random destinations (the paper's
/// Urand analogue).
pub fn uniform(n: usize, degree: usize, seed: u64) -> Csr {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(n * degree);
    for v in 0..n as u64 {
        for _ in 0..degree {
            edges.push((v, rng.below(n as u64)));
        }
    }
    Csr::from_edges(n, &edges)
}

/// Generates an R-MAT / Kronecker power-law graph with the Graph500
/// parameters (A, B, C) = (0.57, 0.19, 0.19) over `2^scale` vertices
/// with `edge_factor` edges per vertex.
pub fn kronecker(scale: u32, edge_factor: usize, seed: u64) -> Csr {
    let n = 1usize << scale;
    let m = n * edge_factor;
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut src, mut dst) = (0u64, 0u64);
        for _ in 0..scale {
            let r: f64 = rng.f64_unit();
            // Quadrant 0..=3 = (A, B, C, D), counted rather than
            // branched on: `r` is uniform, so an `if` chain here is a
            // host branch mispredict on most of 2^scale * m draws.
            let q = u64::from(r >= 0.57)
                + u64::from(r >= 0.57 + 0.19)
                + u64::from(r >= 0.57 + 0.19 + 0.19);
            src = (src << 1) | (q >> 1);
            dst = (dst << 1) | (q & 1);
        }
        edges.push((src, dst));
    }
    Csr::from_edges(n, &edges)
}

/// The five Table 2 graph inputs, as scaled synthetic stand-ins.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GraphPreset {
    /// Kronecker power-law (paper: 134.2 M nodes / 2111.6 M edges).
    Kron,
    /// LiveJournal-like: moderate size, mild skew (4.8 M / 69 M).
    LiveJournal,
    /// Orkut-like: small vertex set, very dense (3.1 M / 1930 M).
    Orkut,
    /// Twitter-like: heavy power-law skew (61.6 M / 1468 M).
    Twitter,
    /// Uniform random (134.2 M / 2147.4 M): uniformly *small* vertex
    /// degrees — the input on which VR's fixed 64-element vectorization
    /// over-fetches hardest.
    Urand,
}

impl GraphPreset {
    /// All five presets in Table 2 order.
    pub const ALL: [GraphPreset; 5] = [
        GraphPreset::Kron,
        GraphPreset::LiveJournal,
        GraphPreset::Orkut,
        GraphPreset::Twitter,
        GraphPreset::Urand,
    ];

    /// The paper's abbreviation (KR, LJN, ORK, TW, UR).
    pub fn abbrev(self) -> &'static str {
        match self {
            GraphPreset::Kron => "KR",
            GraphPreset::LiveJournal => "LJN",
            GraphPreset::Orkut => "ORK",
            GraphPreset::Twitter => "TW",
            GraphPreset::Urand => "UR",
        }
    }

    /// Generates the synthetic stand-in graph.
    pub fn generate(self, scale: Scale) -> Csr {
        // Paper-scale graphs target a multi-×-LLC footprint
        // (row_ptr + col_idx ≳ 16 MB); test-scale ones are tiny.
        let (log_n, ef) = match (self, scale) {
            (GraphPreset::Kron, Scale::Paper) => (20, 16),
            (GraphPreset::LiveJournal, Scale::Paper) => (19, 12),
            (GraphPreset::Orkut, Scale::Paper) => (17, 56),
            (GraphPreset::Twitter, Scale::Paper) => (19, 24),
            (GraphPreset::Urand, Scale::Paper) => (20, 16),
            (GraphPreset::Orkut, Scale::Test) => (8, 16),
            (_, Scale::Test) => (9, 8),
        };
        match self {
            GraphPreset::Urand => uniform(1 << log_n, ef, 0xC0FFEE),
            GraphPreset::LiveJournal => {
                // Mild skew: blend uniform with a light R-MAT.
                let mut g = kronecker(log_n, ef / 2, 0x11AA);
                let u = uniform(1 << log_n, ef / 2, 0x22BB);
                blend(&mut g, &u)
            }
            _ => kronecker(log_n, ef, 0x5EED ^ self as u64),
        }
    }
}

/// Merges the edges of `b` into `a` (used to build mild-skew blends).
fn blend(a: &mut Csr, b: &Csr) -> Csr {
    let n = a.num_nodes();
    let mut edges = Vec::with_capacity(a.num_edges() + b.num_edges());
    for v in 0..n {
        for &d in a.neighbors(v) {
            edges.push((v as u64, d));
        }
        for &d in b.neighbors(v) {
            edges.push((v as u64, d));
        }
    }
    Csr::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_from_edges_round_trips() {
        let edges = [(0u64, 1u64), (0, 2), (1, 2), (2, 0)];
        let g = Csr::from_edges(3, &edges);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn uniform_has_exact_degrees() {
        let g = uniform(100, 7, 42);
        assert_eq!(g.num_edges(), 700);
        for v in 0..100 {
            assert_eq!(g.degree(v), 7);
            for &d in g.neighbors(v) {
                assert!(d < 100);
            }
        }
    }

    #[test]
    fn kronecker_is_power_law_skewed() {
        let g = kronecker(10, 16, 7);
        assert_eq!(g.num_nodes(), 1024);
        assert_eq!(g.num_edges(), 1024 * 16);
        let mut degs: Vec<usize> = (0..g.num_nodes()).map(|v| g.degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        // Top 1% of vertices should hold far more than 1% of edges.
        let top: usize = degs.iter().take(10).sum();
        assert!(
            top > g.num_edges() / 10,
            "R-MAT should be skewed: top-10 vertices hold {top} of {} edges",
            g.num_edges()
        );
        // Uniform graphs, by contrast, are flat.
        let u = uniform(1024, 16, 7);
        let umax = (0..1024).map(|v| u.degree(v)).max().unwrap();
        assert_eq!(umax, 16);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = kronecker(8, 4, 123);
        let b = kronecker(8, 4, 123);
        assert_eq!(a.col_idx, b.col_idx);
        let c = kronecker(8, 4, 124);
        assert_ne!(a.col_idx, c.col_idx);
    }

    /// The generator's output is part of every GAP image and so of
    /// every `PointKey`: pinned to what the `if r < ..` chain this
    /// function used to be produced (FNV-1a over the little-endian
    /// bytes of `row_ptr` then `col_idx`).
    #[test]
    fn kronecker_graph_is_bit_identical_to_the_branching_generator() {
        let g = kronecker(12, 8, 7);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in g.row_ptr.iter().chain(&g.col_idx).flat_map(|w| w.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(h, 0x3b80_8a36_d833_1bd0);
    }

    #[test]
    fn paper_scale_presets_exceed_the_llc() {
        for p in GraphPreset::ALL {
            let g = p.generate(Scale::Paper);
            assert!(
                g.footprint_bytes() > 8 * 1024 * 1024,
                "{} footprint {} B must exceed the 8 MB LLC",
                p.abbrev(),
                g.footprint_bytes()
            );
        }
    }

    #[test]
    fn test_scale_presets_are_small() {
        for p in GraphPreset::ALL {
            let g = p.generate(Scale::Test);
            assert!(g.num_edges() < 100_000);
        }
    }

    #[test]
    fn abbrevs_match_table2() {
        let abbrevs: Vec<_> = GraphPreset::ALL.iter().map(|p| p.abbrev()).collect();
        assert_eq!(abbrevs, ["KR", "LJN", "ORK", "TW", "UR"]);
    }
}
