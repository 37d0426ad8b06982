#![warn(missing_docs)]
//! # vr-workloads
//!
//! The 13 benchmarks of the Vector Runahead evaluation, hand-written
//! in the `vr-isa` toy ISA, plus synthetic input generators.
//!
//! * **GAP suite** ([`gap`]): betweenness centrality (`bc`),
//!   breadth-first search (`bfs`), connected components (`cc`),
//!   PageRank (`pr`), single-source shortest paths (`sssp`) — run over
//!   synthetic graphs standing in for the paper's Kron / LiveJournal /
//!   Orkut / Twitter / Urand inputs ([`graph::GraphPreset`]).
//! * **hpc-db set** ([`hpcdb`]): Camel, Graph500, HashJoin (HJ2/HJ8),
//!   Kangaroo, NAS-CG, NAS-IS, RandomAccess.
//!
//! Every kernel ships with a pure-Rust reference implementation; unit
//! tests execute the assembly on the functional emulator and compare
//! architectural results against the reference.
//!
//! ```
//! use vr_workloads::{hpcdb, Scale};
//!
//! let w = hpcdb::kangaroo(Scale::Test);
//! let cpu = w.run_functional(2_000_000).expect("kernel halts");
//! assert!(cpu.halted());
//! ```

pub mod gap;
pub mod graph;
pub mod hpcdb;
mod layout;

pub use layout::Arena;

use vr_isa::{Cpu, Memory, Program, Reg, StepError};

/// How big to build a workload's input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Small inputs for unit tests (fit in caches, run in
    /// milliseconds).
    Test,
    /// Inputs sized well past the 8 MB LLC, used by the experiment
    /// harness (the paper's multi-GB inputs scaled to simulation
    /// budgets; see DESIGN.md).
    Paper,
}

/// A ready-to-simulate benchmark: program, initial memory image and
/// initial register values.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name as the paper spells it (e.g. `"bfs"`, `"HJ8"`).
    pub name: String,
    /// The assembled kernel.
    pub program: Program,
    /// Pre-initialized data memory.
    pub memory: Memory,
    /// Register values at entry.
    pub init_regs: Vec<(Reg, u64)>,
}

impl Workload {
    /// Runs the workload on the functional emulator until it halts (or
    /// `max_steps` is reached, returning `None`). Used by reference
    /// validation; the timing simulator has its own driver.
    ///
    /// # Errors
    ///
    /// Returns the emulator error if the kernel runs off its program.
    pub fn run_functional(&self, max_steps: u64) -> Result<Cpu, StepError> {
        self.run_functional_with_memory(max_steps).map(|(cpu, _)| cpu)
    }

    /// Like [`Workload::run_functional`] but also returns the final
    /// memory image for output validation.
    ///
    /// # Errors
    ///
    /// Returns the emulator error if the kernel runs off its program.
    pub fn run_functional_with_memory(&self, max_steps: u64) -> Result<(Cpu, Memory), StepError> {
        let mut cpu = Cpu::new();
        for &(r, v) in &self.init_regs {
            cpu.set_x(r, v);
        }
        let mut mem = self.memory.clone();
        for _ in 0..max_steps {
            if cpu.halted() {
                break;
            }
            cpu.step(&self.program, &mut mem)?;
        }
        Ok((cpu, mem))
    }

    /// Dynamic instruction count of a full functional run (`None` if
    /// it exceeds `max_steps`).
    pub fn dynamic_length(&self, max_steps: u64) -> Option<u64> {
        let cpu = self.run_functional(max_steps).ok()?;
        cpu.halted().then(|| cpu.retired())
    }
}

/// All GAP benchmarks at a scale, over one graph preset.
pub fn gap_suite(scale: Scale, preset: graph::GraphPreset) -> Vec<Workload> {
    let g = preset.generate(scale);
    vec![
        gap::bc_on(&g, preset),
        gap::bfs_on(&g, preset),
        gap::cc_on(&g, preset),
        gap::pr_on(&g, preset),
        gap::sssp_on(&g, preset),
    ]
}

/// The eight hpc-db benchmarks at a scale.
pub fn hpcdb_suite(scale: Scale) -> Vec<Workload> {
    vec![
        hpcdb::camel(scale),
        hpcdb::graph500(scale),
        hpcdb::hashjoin(scale, 2),
        hpcdb::hashjoin(scale, 8),
        hpcdb::kangaroo(scale),
        hpcdb::nas_cg(scale),
        hpcdb::nas_is(scale),
        hpcdb::randomaccess(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_the_papers_benchmark_count() {
        let gap = gap_suite(Scale::Test, graph::GraphPreset::Kron);
        assert_eq!(gap.len(), 5);
        let hd = hpcdb_suite(Scale::Test);
        assert_eq!(hd.len(), 8);
        let names: Vec<_> = hd.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            ["Camel", "Graph500", "HJ2", "HJ8", "Kangaroo", "NAS-CG", "NAS-IS", "RandomAccess"]
        );
    }

    #[test]
    fn every_test_scale_workload_halts_functionally() {
        for w in gap_suite(Scale::Test, graph::GraphPreset::Urand)
            .into_iter()
            .chain(hpcdb_suite(Scale::Test))
        {
            let cpu =
                w.run_functional(20_000_000).unwrap_or_else(|e| panic!("{} faulted: {e}", w.name));
            assert!(cpu.halted(), "{} did not halt", w.name);
        }
    }
}
