//! Input sizes and workload generation (the benchmark's set-up).

use std::sync::Arc;

use vr_workloads::graph::{self, GraphPreset};
use vr_workloads::{gap, hpcdb_suite, Scale, Workload};

/// How big every input and budget is. The benchmark always runs
/// [`Sizing::paper`]; the crate's tests run [`Sizing::smoke`] so each
/// workload's code path is covered in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Scale of the eight hpc-db inputs (their seeds are library-fixed).
    pub scale: Scale,
    /// `graph::kronecker(log_n, edge_factor, seed)` under the GAP kernels.
    pub kron: (u32, usize),
    /// Instruction budget of a `core_*` point.
    pub core_insts: u64,
    /// Per-core instruction budget of a chip point.
    pub chip_insts: u64,
    /// Budget of a campaign point (the CLI's default budget).
    pub campaign_insts: u64,
    /// Instructions the standalone isa/frontend/mem replays cover.
    pub replay_insts: u64,
    /// Records in the direct `ResultStore` save/load probe.
    pub store_records: usize,
}

impl Sizing {
    /// The figures' own inputs: footprints far past the 8 MB modelled LLC.
    pub fn paper() -> Sizing {
        Sizing {
            scale: Scale::Paper,
            kron: (20, 16),
            core_insts: 1_000_000,
            chip_insts: 500_000,
            campaign_insts: 200_000,
            replay_insts: 200_000,
            store_records: 1000,
        }
    }

    /// Cache-resident inputs and tiny budgets, for the crate's tests.
    #[cfg(test)]
    pub fn smoke() -> Sizing {
        Sizing {
            scale: Scale::Test,
            kron: (9, 8),
            core_insts: 20_000,
            chip_insts: 5_000,
            campaign_insts: 5_000,
            replay_insts: 20_000,
            store_records: 30,
        }
    }

    /// One line for the report header.
    pub fn describe(&self) -> String {
        format!(
            "inputs {:?}: GAP on kronecker({}, {}, seed) + 8 hpc-db (library-fixed seeds); \
             modelled caches start empty, stats collected from instruction 0; \
             closed loop, one op at a time",
            self.scale, self.kron.0, self.kron.1
        )
    }
}

/// Which programs a workload needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Programs {
    /// The 13 of [`crate::metrics::PROGRAMS`].
    All,
    /// `bfs_KR` and `Camel`, the chip's mixed placement.
    ChipPair,
}

/// Generates the programs from `seed`: the same seed gives the same
/// graph and so the same five GAP images; the hpc-db inputs do not
/// depend on it.
pub fn generate(sizing: &Sizing, seed: u64, which: Programs) -> Vec<Arc<Workload>> {
    let g = graph::kronecker(sizing.kron.0, sizing.kron.1, seed);
    let mut out = Vec::new();
    match which {
        Programs::All => {
            for build in [gap::bc_on, gap::bfs_on, gap::cc_on, gap::pr_on, gap::sssp_on] {
                out.push(build(&g, GraphPreset::Kron));
            }
            drop(g);
            out.extend(hpcdb_suite(sizing.scale));
        }
        Programs::ChipPair => {
            out.push(gap::bfs_on(&g, GraphPreset::Kron));
            drop(g);
            out.extend(hpcdb_suite(sizing.scale).into_iter().filter(|w| w.name == "Camel"));
        }
    }
    out.into_iter().map(Arc::new).collect()
}

/// Σ mapped image bytes of `programs`, in MB.
pub fn image_mb(programs: &[Arc<Workload>]) -> f64 {
    programs.iter().map(|w| w.memory.mapped_pages() as f64 * 4096.0).sum::<f64>() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PROGRAMS;

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let s = Sizing::smoke();
        let a = generate(&s, 7, Programs::All);
        let b = generate(&s, 7, Programs::All);
        let c = generate(&s, 8, Programs::All);
        let names: Vec<&str> = a.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, PROGRAMS);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.memory.digest(), y.memory.digest(), "{}", x.name);
            let seeded = x.name.ends_with("_KR");
            assert_eq!(x.memory.digest() != z.memory.digest(), seeded, "{}", x.name);
        }
        let pair = generate(&s, 7, Programs::ChipPair);
        let names: Vec<&str> = pair.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["bfs_KR", "Camel"]);
        assert!(image_mb(&a) > image_mb(&pair));
    }
}
