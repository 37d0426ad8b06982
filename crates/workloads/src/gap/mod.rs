//! The five GAP-suite kernels of the paper's evaluation.
//!
//! Each kernel follows the shape of the GAP benchmark suite reference
//! code (Beamer et al.): CSR graphs, queue-based traversals, pull
//! PageRank, label-propagation components and Bellman-Ford-style
//! relaxation. Register conventions shared by all kernels: `a0` =
//! `row_ptr`, `a1` = `col_idx`, `a2..a5` = per-kernel arrays, `a6` =
//! result cell.

pub(crate) mod bc;
pub(crate) mod bfs;
pub(crate) mod cc;
pub(crate) mod pr;
pub(crate) mod sssp;

pub use bc::{bc_on, bc_reference};
pub use bfs::{bfs_on, bfs_reference};
pub use cc::{cc_on, cc_reference, CC_ROUNDS};
pub use pr::{pr_on, pr_reference};
pub use sssp::{sssp_on, sssp_reference, INF, SSSP_ROUNDS};

use vr_isa::Memory;

use crate::graph::{Csr, GraphPreset};
use crate::layout::Arena;

/// A CSR graph laid out in simulated memory.
pub(crate) struct GraphImage {
    pub row_ptr: u64,
    pub col_idx: u64,
    pub n: u64,
    pub arena: Arena,
    pub memory: Memory,
}

/// Lays `row_ptr` and `col_idx` out in memory: written once per `Csr`,
/// every call gets a clone, so the kernels built over one graph share
/// its pages and each owns only the arrays it adds.
pub(crate) fn load_graph(g: &Csr) -> GraphImage {
    let mut arena = Arena::new();
    let row_ptr = arena.alloc_u64s(g.row_ptr().len() as u64);
    let col_idx = arena.alloc_u64s(g.col_idx().len().max(1) as u64);
    let memory = g.image.get_or_init(|| {
        let mut memory = Memory::new();
        memory.write_u64_slice(row_ptr, g.row_ptr());
        memory.write_u64s(col_idx, g.col_idx().iter().map(|&d| u64::from(d)));
        memory
    });
    GraphImage { row_ptr, col_idx, n: g.num_nodes() as u64, arena, memory: memory.clone() }
}

/// The traversal source every kernel uses: the highest-out-degree
/// vertex (guarantees a large frontier on power-law inputs).
pub(crate) fn source_vertex(g: &Csr) -> u64 {
    (0..g.num_nodes()).max_by_key(|&v| g.degree(v)).unwrap_or(0) as u64
}

/// Suffix a workload name with the preset abbreviation, as the paper
/// labels benchmark-input pairs (`bfs_KR`, `cc_TW`, …).
pub(crate) fn named(kernel: &str, preset: GraphPreset) -> String {
    format!("{kernel}_{}", preset.abbrev())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::uniform;

    #[test]
    fn load_graph_places_disjoint_arrays() {
        let g = uniform(64, 4, 1);
        let img = load_graph(&g);
        assert_eq!(img.n, 64);
        assert_eq!(img.memory.read_u64(img.row_ptr), 0);
        assert_eq!(img.memory.read_u64(img.row_ptr + 64 * 8), 64 * 4);
        assert!(img.col_idx >= img.row_ptr + 65 * 8);
    }

    /// Digests of the Test-scale Kron and Urand images in `gap_suite`
    /// order, taken when every kernel wrote the graph into memory of
    /// its own and initialised its arrays one element at a time.
    #[test]
    fn images_built_over_one_shared_graph_digest_as_separately_built_ones() {
        const PINS: [(GraphPreset, [u64; 5]); 2] = [
            (
                GraphPreset::Kron,
                [
                    0xca21_5c68_6955_82b1,
                    0x2656_f49f_8903_4176,
                    0x3bbb_f589_e89a_9412,
                    0x7d6e_3df6_ddb4_e718,
                    0xe0d9_bc62_409a_a677,
                ],
            ),
            (
                GraphPreset::Urand,
                [
                    0x5da3_81a3_f2ce_1fd1,
                    0xac16_8448_bd94_b16f,
                    0x8f22_426e_a91e_67bc,
                    0xe87f_ea53_d8ff_f05e,
                    0x4ccb_2514_26e7_dd83,
                ],
            ),
        ];
        let builders = [bc_on, bfs_on, cc_on, pr_on, sssp_on];
        for (preset, pins) in PINS {
            let g = preset.generate(crate::Scale::Test);
            for (build, pin) in builders.iter().zip(pins) {
                let shared = build(&g, preset);
                assert_eq!(shared.memory.digest(), pin, "{}", shared.name);
                // A graph of its own: nothing to share with.
                let alone = build(&preset.generate(crate::Scale::Test), preset);
                assert_eq!(alone.memory.digest(), pin, "{} built alone", alone.name);
                assert_eq!(alone.memory.mapped_pages(), shared.memory.mapped_pages());
            }
        }
    }

    /// Digests of the five kernels' images and NAS-CG's over a graph
    /// large enough to be generated and built by two workers, taken
    /// when `Csr` held its neighbour ids as `u64`s.
    #[test]
    fn images_over_a_split_graph_are_pinned() {
        const PINS: [(&str, u64); 6] = [
            ("bc_KR", 0x1cdd_34e4_28c3_1de7),
            ("bfs_KR", 0x8e7c_a353_6d08_edbc),
            ("cc_KR", 0x177c_3f53_941c_e0c6),
            ("pr_KR", 0xb6fd_2253_3ba0_70ae),
            ("sssp_KR", 0x1b99_1e11_abdc_5dee),
            ("NAS-CG", 0xdf31_383c_a1ac_dc44),
        ];
        let g = crate::graph::kronecker(16, 16, 24301);
        let images = [bc_on, bfs_on, cc_on, pr_on, sssp_on]
            .map(|build| build(&g, GraphPreset::Kron))
            .into_iter()
            .chain([crate::hpcdb::nas_cg_on(&g)]);
        for (w, (name, digest)) in images.zip(PINS) {
            assert_eq!(w.name, name);
            assert_eq!(w.memory.digest(), digest, "{name}");
        }
    }

    #[test]
    fn a_kernel_never_sees_another_kernels_arrays() {
        let g = uniform(64, 4, 1);
        let src = source_vertex(&g);
        assert_ne!(src, 0);
        let bfs = bfs_on(&g, GraphPreset::Urand);
        let bc = bc_on(&g, GraphPreset::Urand);
        // `bc`'s sigma and queue sit where `bfs` put its queue and result.
        let at = |w: &crate::Workload, r| w.init_regs.iter().find(|(x, _)| *x == r).unwrap().1;
        let (bfs_queue, bc_sigma, bc_queue) =
            (at(&bfs, vr_isa::Reg::A3), at(&bc, vr_isa::Reg::A3), at(&bc, vr_isa::Reg::A4));
        assert_eq!((bfs_queue, bc_queue), (bc_sigma, at(&bfs, vr_isa::Reg::A6)));
        assert_eq!(bfs.memory.read_u64(bfs_queue), src);
        assert_eq!(bc.memory.read_u64(bc_sigma), 0, "bfs's Q[0] leaked into bc's sigma[0]");
        assert_eq!(bc.memory.read_u64(bc_queue), src);
        assert_eq!(bfs.memory.read_u64(bc_queue), 0, "bc's Q[0] leaked into bfs's result");
    }

    #[test]
    fn source_vertex_picks_max_degree() {
        let g = Csr::from_edges(4, &[(2, 0), (2, 1), (2, 3), (0, 1)]);
        assert_eq!(source_vertex(&g), 2);
    }
}
