//! Breadth-first search (GAP `bfs`, top-down step).
//!
//! This is Algorithm 1 of the paper's motivation: two striding loads
//! (the frontier queue walk and the inner edge walk) and a highly
//! data-dependent `visited` branch — the canonical Vector Runahead
//! workload.

use vr_isa::{Asm, Reg};

use crate::gap::{load_graph, named, source_vertex};
use crate::graph::{Csr, GraphPreset};
use crate::Workload;

/// Builds top-down BFS over `g`.
///
/// Memory outputs: `parent[u]` holds `v + 1` for the BFS parent `v`
/// (0 = unreached); the result cell `a6` receives the number of
/// reached vertices.
pub fn bfs_on(g: &Csr, preset: GraphPreset) -> Workload {
    build(g, &named("bfs", preset))
}

pub(crate) fn build(g: &Csr, name: &str) -> Workload {
    let mut img = load_graph(g);
    let parent = img.arena.alloc_u64s(img.n);
    let queue = img.arena.alloc_u64s(img.n + 1);
    let result = img.arena.alloc_u64s(1);
    let src = source_vertex(g);
    // parent[src] = src + 1; Q[0] = src.
    img.memory.write_u64(parent + src * 8, src + 1);
    img.memory.write_u64(queue, src);

    let mut a = Asm::new();
    let (row, col, par, q, res) = (Reg::A0, Reg::A1, Reg::A2, Reg::A3, Reg::A6);
    let (head, tail) = (Reg::S0, Reg::S1);
    let (v, e, eend, u, tmp, pval) = (Reg::S2, Reg::S3, Reg::S4, Reg::T4, Reg::T0, Reg::T5);

    a.li(head, 0);
    a.li(tail, 1);
    let outer = a.here();
    let done = a.label();
    a.bgeu(head, tail, done);
    // v = Q[head++]
    a.slli(tmp, head, 3);
    a.add(tmp, tmp, q);
    a.ld(v, tmp, 0);
    a.addi(head, head, 1);
    // e = row[v], eend = row[v+1]
    a.slli(tmp, v, 3);
    a.add(tmp, tmp, row);
    a.ld(e, tmp, 0);
    a.ld(eend, tmp, 8);
    let inner = a.here();
    a.bgeu(e, eend, outer);
    // u = col[e++]                                  (striding load)
    a.slli(tmp, e, 3);
    a.add(tmp, tmp, col);
    a.ld(u, tmp, 0);
    a.addi(e, e, 1);
    // if parent[u] != 0 continue                    (indirect load)
    a.slli(tmp, u, 3);
    a.add(tmp, tmp, par);
    a.ld(pval, tmp, 0);
    let skip = a.label();
    a.bne(pval, Reg::ZERO, skip);
    // parent[u] = v + 1; Q[tail++] = u
    a.addi(pval, v, 1);
    a.st(pval, tmp, 0);
    a.slli(tmp, tail, 3);
    a.add(tmp, tmp, q);
    a.st(u, tmp, 0);
    a.addi(tail, tail, 1);
    a.bind(skip);
    a.j(inner);
    a.bind(done);
    a.st(tail, res, 0);
    a.halt();

    Workload {
        name: name.to_owned(),
        program: a.assemble(),
        memory: img.memory,
        init_regs: vec![
            (row, img.row_ptr),
            (col, img.col_idx),
            (par, parent),
            (q, queue),
            (res, result),
        ],
    }
}

/// Pure-Rust reference: returns (`parent` array with the same `v+1`
/// encoding, reached-count-including-source).
pub fn bfs_reference(g: &Csr, src: u64) -> (Vec<u64>, u64) {
    let n = g.num_nodes();
    let mut parent = vec![0u64; n];
    let mut queue = std::collections::VecDeque::new();
    parent[src as usize] = src + 1;
    queue.push_back(src);
    let mut reached = 1u64;
    while let Some(v) = queue.pop_front() {
        for &u in g.neighbors(v as usize) {
            let u = u64::from(u);
            if parent[u as usize] == 0 {
                parent[u as usize] = v + 1;
                queue.push_back(u);
                reached += 1;
            }
        }
    }
    (parent, reached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{kronecker, uniform};
    use crate::Scale;

    fn check_against_reference(g: &Csr) {
        let w = bfs_on(g, GraphPreset::Kron);
        let (cpu, mem) = w.run_functional_with_memory(50_000_000).expect("bfs halts");
        assert!(cpu.halted());
        let (ref_parent, ref_reached) = bfs_reference(g, super::source_vertex(g));
        let parent_base = w.init_regs.iter().find(|(r, _)| *r == Reg::A2).unwrap().1;
        let res_base = w.init_regs.iter().find(|(r, _)| *r == Reg::A6).unwrap().1;
        assert_eq!(mem.read_u64(res_base), ref_reached, "reached count");
        for (i, &p) in ref_parent.iter().enumerate() {
            // BFS parent choice depends on queue order, which both
            // implementations share exactly (same FIFO, same edge
            // order), so parents must match verbatim.
            assert_eq!(mem.read_u64(parent_base + 8 * i as u64), p, "parent[{i}]");
        }
    }

    #[test]
    fn matches_reference_on_uniform_graph() {
        check_against_reference(&uniform(200, 4, 99));
    }

    #[test]
    fn matches_reference_on_kronecker_graph() {
        check_against_reference(&kronecker(8, 8, 3));
    }

    #[test]
    fn handles_isolated_source_graph() {
        // Vertex 0 has the max degree 0-tie; BFS reaches only itself.
        let g = Csr::from_edges(3, &[]);
        let w = build(&g, "bfs_tiny");
        let (_, mem) = w.run_functional_with_memory(10_000).unwrap();
        let res = w.init_regs.iter().find(|(r, _)| *r == Reg::A6).unwrap().1;
        assert_eq!(mem.read_u64(res), 1);
    }

    #[test]
    fn preset_naming() {
        let w = bfs_on(&uniform(32, 2, 1), GraphPreset::Twitter);
        assert_eq!(w.name, "bfs_TW");
        let _ = Scale::Test; // silence unused-import lints in minimal cfgs
    }
}
