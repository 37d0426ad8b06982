//! Graph representation and synthetic input generators.
//!
//! The paper's Table 2 inputs (Kron, LiveJournal, Orkut, Twitter,
//! Urand — up to 2.1 B edges) cannot be simulated at full size on a
//! cycle-level model; [`GraphPreset`] generates scaled-down synthetic
//! graphs preserving the property the paper's analysis keys on: the
//! *degree distribution* (power-law Kronecker/R-MAT vs uniform
//! random), with footprints well past the 8 MB LLC at
//! [`Scale::Paper`].
//!
//! Generation is parallel and bit for bit. Every edge draws a fixed
//! number of values from one SplitMix64 stream, so the draws of edge
//! `e` start at a known offset that [`SplitMix64::jump`] reaches in
//! O(1): threads drawing contiguous ranges of the edge list write
//! exactly what one thread would. The edge list is one `u64` per edge,
//! `src << 32 | dst`, and [`Csr`]s come from one builder, a stable
//! counting sort that keeps each vertex's neighbours in edge-list order
//! however the list was split. The number of threads therefore changes
//! how long a graph takes and nothing else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use vr_isa::{Memory, SplitMix64};
use vr_pool::cpus;

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

    /// Builds a CSR from an edge list over `n` vertices; each vertex
    /// lists its neighbours in edge-list order.
    ///
    /// # Panics
    ///
    /// Panics if a source is not below `n` or an endpoint does not fit
    /// in 32 bits.
    pub fn from_edges(n: usize, edges: &[(u64, u64)]) -> Csr {
        let packed: Vec<u64> = edges
            .iter()
            .map(|&(s, d)| {
                assert!(s >> 32 == 0 && d >> 32 == 0, "edge ({s}, {d}): vertex ids are 32-bit");
                pack(s, d)
            })
            .collect();
        Csr::build(n, &packed, workers(n, packed.len()))
    }

    /// The one CSR builder: a stable counting sort of packed edges by
    /// source, split over `workers`. Each worker counts the sources of
    /// one contiguous chunk of the list; a prefix sum over (vertex,
    /// chunk) gives every chunk its first slot in each vertex's row;
    /// each worker then places its chunk's edges from those slots. A
    /// row holds its edges in list order whatever the split.
    fn build(n: usize, edges: &[u64], workers: usize) -> Csr {
        let chunks: Vec<&[u64]> = edges.chunks(edges.len().div_ceil(workers).max(1)).collect();
        let mut slots = vr_pool::map(cpus(), chunks.clone(), |chunk| {
            let mut count = vec![0u64; n];
            for &e in chunk {
                count[src(e)] += 1;
            }
            count
        });
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut next = 0;
        for v in 0..n {
            row_ptr.push(next);
            for slot in &mut slots {
                next += std::mem::replace(&mut slot[v], next);
            }
        }
        row_ptr.push(next);
        // The chunks fill disjoint slots, so a relaxed store publishes
        // nothing another worker reads; the scope's join orders them
        // before `into_inner`. Both conversions happen in place, and
        // the zeroed pages are first touched by the workers.
        let col_idx: Vec<AtomicU64> =
            vec![0; edges.len()].into_iter().map(AtomicU64::new).collect();
        vr_pool::map(cpus(), chunks.into_iter().zip(slots), |(chunk, mut slot)| {
            for &e in chunk {
                let at = &mut slot[src(e)];
                col_idx[*at as usize].store(e & 0xFFFF_FFFF, Ordering::Relaxed);
                *at += 1;
            }
        });
        let col_idx = col_idx.into_iter().map(AtomicU64::into_inner).collect();
        Csr { row_ptr, col_idx, image: OnceLock::new() }
    }

    /// Memory footprint in bytes when laid out as 8-byte arrays.
    pub fn footprint_bytes(&self) -> u64 {
        (self.row_ptr.len() + self.col_idx.len()) as u64 * 8
    }
}

/// An edge as generation passes it around: `src << 32 | dst`.
fn pack(src: u64, dst: u64) -> u64 {
    src << 32 | dst
}

/// The source vertex of a packed edge.
fn src(e: u64) -> usize {
    (e >> 32) as usize
}

/// Edges a thread must have to itself before generation splits: below
/// this (every `Scale::Test` graph) a graph is built on the calling
/// thread.
const MIN_EDGES_PER_WORKER: usize = 1 << 16;

/// Workers to generate and build a graph of `n` vertices and `m` edges
/// with: one per available CPU, none with fewer than
/// [`MIN_EDGES_PER_WORKER`] edges, and at most `m / n` of them, so that
/// the `n`-entry histogram each keeps while building is never larger
/// than its share of the edge list.
fn workers(n: usize, m: usize) -> usize {
    cpus().min(m / MIN_EDGES_PER_WORKER).min(m / n.max(1)).max(1)
}

/// An `m`-edge list drawn by `workers`: it is cut into that many
/// contiguous chunks of whole multiples of `align` edges, and
/// `fill(first, chunk)` writes edges `first..first + chunk.len()`.
fn draw_edges(
    m: usize,
    align: usize,
    workers: usize,
    fill: impl Fn(usize, &mut [u64]) + Sync,
) -> Vec<u64> {
    let mut edges = vec![0u64; m];
    let per = m.div_ceil(workers).next_multiple_of(align.max(1)).max(1);
    vr_pool::map(cpus(), edges.chunks_mut(per).enumerate(), |(i, chunk)| fill(i * per, chunk));
    edges
}

/// Generates a uniform-random graph: every vertex gets exactly
/// `degree` out-edges with uniformly random destinations (the paper's
/// Urand analogue).
pub fn uniform(n: usize, degree: usize, seed: u64) -> Csr {
    uniform_on(n, degree, seed, workers(n, n * degree))
}

fn uniform_on(n: usize, degree: usize, seed: u64, workers: usize) -> Csr {
    Csr::build(n, &uniform_edges(n, degree, seed, workers), workers)
}

/// Vertex by vertex, `degree` edges each, one draw per edge.
fn uniform_edges(n: usize, degree: usize, seed: u64, workers: usize) -> Vec<u64> {
    assert!(n as u64 <= 1 << 32, "packed edges hold 32-bit vertex ids");
    draw_edges(n * degree, degree, workers, |first, chunk| {
        let mut rng = SplitMix64::new(seed);
        rng.jump(first as u64);
        for (v, row) in (first / degree..).zip(chunk.chunks_mut(degree)) {
            for e in row {
                *e = pack(v as u64, rng.below(n as u64));
            }
        }
    })
}

/// The Graph500 R-MAT quadrant probabilities A, B and C (D is the rest).
const RMAT: [f64; 3] = [0.57, 0.19, 0.19];

/// The quadrant thresholds `A`, `A+B`, `A+B+C` on the 53-bit integer
/// `y` behind a uniform draw `r = y·2⁻⁵³` (what
/// `SplitMix64::f64_unit` returns): converting `y` and scaling by a
/// power of two are both exact in `f64`, so `r ≥ p` exactly when
/// `y ≥ ⌈p·2⁵³⌉`, and comparing integers picks the quadrants a
/// comparison of floats would.
const QUADRANT: [u64; 3] =
    [at_least(RMAT[0]), at_least(RMAT[0] + RMAT[1]), at_least(RMAT[0] + RMAT[1] + RMAT[2])];

/// `⌈p·2⁵³⌉` for `p` in `[0, 1]`.
const fn at_least(p: f64) -> u64 {
    let scaled = p * (1u64 << 53) as f64;
    let floor = scaled as u64;
    if (floor as f64) < scaled {
        floor + 1
    } else {
        floor
    }
}

/// The quadrant 0..=3 (A, B, C, D) of the 53-bit draw `y`.
const fn quadrant(y: u64) -> usize {
    (y >= QUADRANT[0]) as usize + (y >= QUADRANT[1]) as usize + (y >= QUADRANT[2]) as usize
}

/// The (source, destination) bits a level appends in each quadrant,
/// packed: A = (0, 0), B = (0, 1), C = (1, 0), D = (1, 1).
const LEVEL_BITS: [u64; 4] = [0, 1, 1 << 32, 1 << 32 | 1];

/// Top bits of a 53-bit draw that index [`LEVEL_TABLE`].
const TABLE_BITS: u32 = 10;

/// A [`LEVEL_TABLE`] entry whose bucket a threshold cuts.
const SPLIT: u64 = u64::MAX;

/// [`LEVEL_BITS`] by the top [`TABLE_BITS`] of the draw. The quadrant
/// never falls as `y` grows, so a bucket whose lowest and highest draws
/// share a quadrant lies wholly inside it; the (at most three) buckets
/// a threshold cuts read [`SPLIT`] and are decided by [`quadrant`]. One
/// load settles all but ~0.3 % of draws, with the same answer.
static LEVEL_TABLE: [u64; 1 << TABLE_BITS] = level_table();

const fn level_table() -> [u64; 1 << TABLE_BITS] {
    let width = 1u64 << (53 - TABLE_BITS);
    let mut table = [SPLIT; 1 << TABLE_BITS];
    let mut bucket = 0;
    while bucket < table.len() {
        let lowest = bucket as u64 * width;
        let q = quadrant(lowest);
        if q == quadrant(lowest + width - 1) {
            table[bucket] = LEVEL_BITS[q];
        }
        bucket += 1;
    }
    table
}

/// Generates an R-MAT / Kronecker power-law graph with the Graph500
/// parameters (A, B, C) = (0.57, 0.19, 0.19) over `2^scale` vertices
/// with `edge_factor` edges per vertex.
pub fn kronecker(scale: u32, edge_factor: usize, seed: u64) -> Csr {
    let n = 1usize << scale;
    kronecker_on(scale, edge_factor, seed, workers(n, n * edge_factor))
}

fn kronecker_on(scale: u32, edge_factor: usize, seed: u64, workers: usize) -> Csr {
    Csr::build(1 << scale, &kronecker_edges(scale, edge_factor, seed, workers), workers)
}

/// `scale` draws per edge, each choosing one bit of the source and one
/// of the destination. The bits are shifted into the packed edge
/// directly: after `k` levels the destination has `k` bits, so its top
/// bit reaches the source's half only past level 32.
fn kronecker_edges(scale: u32, edge_factor: usize, seed: u64, workers: usize) -> Vec<u64> {
    assert!(scale <= 32, "packed edges hold 32-bit vertex ids");
    draw_edges((1usize << scale) * edge_factor, 1, workers, |first, chunk| {
        let mut rng = SplitMix64::new(seed);
        rng.jump((first as u64).wrapping_mul(u64::from(scale)));
        for e in chunk {
            for _ in 0..scale {
                let y = rng.next_u64() >> 11;
                let mut bits = LEVEL_TABLE[(y >> (53 - TABLE_BITS)) as usize];
                if bits == SPLIT {
                    bits = LEVEL_BITS[quadrant(y)];
                }
                *e = *e << 1 | bits;
            }
        }
    })
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

    /// `(log_n, edge_factor)` of the generated graph: `2^log_n`
    /// vertices and exactly `2^log_n × edge_factor` edges.
    pub fn shape(self, scale: Scale) -> (u32, usize) {
        // Paper-scale graphs target a multi-×-LLC footprint
        // (row_ptr + col_idx ≳ 16 MB); test-scale ones are tiny.
        match (self, scale) {
            (GraphPreset::Kron, Scale::Paper) => (20, 16),
            (GraphPreset::LiveJournal, Scale::Paper) => (19, 12),
            (GraphPreset::Orkut, Scale::Paper) => (17, 56),
            (GraphPreset::Twitter, Scale::Paper) => (19, 24),
            (GraphPreset::Urand, Scale::Paper) => (20, 16),
            (GraphPreset::Orkut, Scale::Test) => (8, 16),
            (_, Scale::Test) => (9, 8),
        }
    }

    /// Generates the synthetic stand-in graph.
    pub fn generate(self, scale: Scale) -> Csr {
        let (log_n, ef) = self.shape(scale);
        self.generate_on(scale, workers(1 << log_n, (1 << log_n) * ef))
    }

    fn generate_on(self, scale: Scale, workers: usize) -> Csr {
        let (log_n, ef) = self.shape(scale);
        match self {
            GraphPreset::Urand => uniform_on(1 << log_n, ef, 0xC0FFEE, workers),
            GraphPreset::LiveJournal => {
                // Mild skew: a light R-MAT blended with a uniform graph,
                // each vertex listing its R-MAT neighbours first.
                let mut edges = kronecker_edges(log_n, ef / 2, 0x11AA, workers);
                edges.extend(uniform_edges(1 << log_n, ef / 2, 0x22BB, workers));
                Csr::build(1 << log_n, &edges, workers)
            }
            _ => kronecker_on(log_n, ef, 0x5EED ^ self as u64, workers),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the little-endian bytes of `row_ptr` then `col_idx`.
    fn fnv(g: &Csr) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in g.row_ptr.iter().chain(&g.col_idx).flat_map(|w| w.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h
    }

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

    /// Taken from the single-threaded generators that drew an `f64` per
    /// Kronecker level and built every CSR, the LiveJournal blend's
    /// included, from a list of `(src, dst)` pairs. The first two are
    /// large enough to split.
    #[test]
    fn generated_graphs_are_bit_identical_to_the_sequential_generators() {
        assert_eq!(fnv(&kronecker(16, 16, 24301)), 0x843a_1bca_839e_c4ae);
        assert_eq!(fnv(&uniform(1 << 16, 16, 0xC0FFEE)), 0x637c_d5ce_ed02_5e5a);
        let blend = GraphPreset::LiveJournal.generate(Scale::Test);
        assert_eq!(fnv(&blend), 0xf869_f9a0_92a9_3f77);
    }

    #[test]
    fn any_split_builds_the_same_graph() {
        let one = (kronecker_on(10, 8, 3, 1), uniform_on(1000, 5, 4, 1));
        let blend = GraphPreset::LiveJournal.generate_on(Scale::Test, 1);
        for workers in [2, 3, 7] {
            for (split, whole) in [
                (kronecker_on(10, 8, 3, workers), &one.0),
                (uniform_on(1000, 5, 4, workers), &one.1),
                (GraphPreset::LiveJournal.generate_on(Scale::Test, workers), &blend),
            ] {
                assert_eq!(split.row_ptr, whole.row_ptr, "{workers} workers");
                assert_eq!(split.col_idx, whole.col_idx, "{workers} workers");
            }
        }
        // More workers than edges: empty chunks are no chunks.
        let tiny = kronecker_on(1, 1, 9, 7);
        assert_eq!(tiny.col_idx, kronecker_on(1, 1, 9, 1).col_idx);
        assert_eq!(uniform_on(4, 0, 1, 3).row_ptr, [0; 5]);
    }

    #[test]
    fn quadrants_are_decided_as_the_float_draw_decided_them() {
        let unit = |y: u64| y as f64 * (1.0 / (1u64 << 53) as f64);
        let p = [RMAT[0], RMAT[0] + RMAT[1], RMAT[0] + RMAT[1] + RMAT[2]];
        for (&t, &p) in QUADRANT.iter().zip(&p) {
            for y in [0, t - 2, t - 1, t, t + 1, t + 2, (1 << 53) - 1] {
                assert_eq!(y >= t, unit(y) >= p, "threshold {t}, y {y}");
            }
        }
        // Every bucket either holds one quadrant end to end or is cut
        // by a threshold and marked; each threshold cuts one bucket.
        let width = 1u64 << (53 - TABLE_BITS);
        for (bucket, &bits) in LEVEL_TABLE.iter().enumerate() {
            let (lowest, highest) = (bucket as u64 * width, (bucket as u64 + 1) * width - 1);
            let cut = QUADRANT.iter().any(|&t| lowest < t && t <= highest);
            let whole = LEVEL_BITS[quadrant(lowest)];
            assert_eq!(bits, if cut { SPLIT } else { whole }, "bucket {bucket}");
        }
        assert_eq!(LEVEL_TABLE.iter().filter(|&&b| b == SPLIT).count(), QUADRANT.len());
    }

    #[test]
    fn paper_scale_presets_exceed_the_llc() {
        for p in GraphPreset::ALL {
            let g = p.generate(Scale::Paper);
            let (log_n, ef) = p.shape(Scale::Paper);
            assert_eq!((g.num_nodes(), g.num_edges()), (1 << log_n, (1 << log_n) * ef));
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
            let (log_n, ef) = p.shape(Scale::Test);
            assert_eq!((g.num_nodes(), g.num_edges()), (1 << log_n, (1 << log_n) * ef));
            assert!(g.num_edges() < 100_000);
        }
    }

    #[test]
    fn abbrevs_match_table2() {
        let abbrevs: Vec<_> = GraphPreset::ALL.iter().map(|p| p.abbrev()).collect();
        assert_eq!(abbrevs, ["KR", "LJN", "ORK", "TW", "UR"]);
    }
}
